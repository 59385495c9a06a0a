"""Regenerate the golden-trace fixture pinned by tests/golden/.

One small, fixed workload (wordcount, seed 11, scale 0.3, 2 MPs,
64-thread blocks) is run on the cycle-accurate simulator once per
memory mode — plus the Mars two-pass baseline — and its cycle counts
and kernel counters are pinned to
``tests/golden/wordcount_small.json``.  Any engine change that moves a
simulated cycle or an instruction counter shows up as a precise diff
in that file instead of as an unexplained shift in the paper figures.

Regenerate (only!) when a timing-model change is intended::

    PYTHONPATH=src python scripts/gen_golden_traces.py

then review the JSON diff and commit it with the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.gpu.config import DeviceConfig
from repro.workloads import WordCount

FIXTURE = (Path(__file__).resolve().parent.parent
           / "tests" / "golden" / "wordcount_small.json")
DIST_FIXTURE = (Path(__file__).resolve().parent.parent
                / "tests" / "golden" / "dist_wordcount_small.json")

#: The pinned workload identity: change ANY of these and the fixture
#: must be regenerated.
WORKLOAD = {"code": "WC", "size": "small", "seed": 11, "scale": 0.3,
            "mps": 2, "threads_per_block": 64, "strategy": "TR"}

#: The pinned distributed run: same workload on ``dist:2`` with
#: deterministic scheduling and a scripted mid-map kill of worker 1.
DIST_WORKLOAD = {"code": "WC", "size": "small", "seed": 11, "scale": 0.3,
                 "workers": 2, "split_bytes": 2048,
                 "threads_per_block": 64, "strategy": "TR"}

#: Event kinds pinned from the coordinator log.  ``complete`` and
#: ``duplicate`` are excluded: acceptance order races with socket
#: timing even under deterministic placement.  The *scheduling*
#: decisions — who was assigned what, what died, what was retried
#: where — are placement-deterministic and sort-stable.
DIST_EVENT_KINDS = ("assign", "retry", "worker_dead", "respawn")

#: KernelStats fields pinned per phase.  ``stall_cycles`` is omitted:
#: it is a profiler view (overlapping waits), noisier under benign
#: scheduler refactors than the architectural counters below.
STAT_FIELDS = (
    "cycles", "instructions", "compute_ops", "global_reads",
    "global_writes", "shared_ops", "atomics_global", "atomics_shared",
    "texture_reads", "barriers", "fences", "global_transactions",
    "global_bytes", "atomic_conflicts", "grid_blocks",
    "threads_per_block", "blocks_per_mp",
)


def _stats(st) -> dict:
    doc = {f: getattr(st, f) for f in STAT_FIELDS}
    doc["extra"] = dict(sorted(st.extra.items()))
    return doc


def _entry(result) -> dict:
    return {
        "timings": result.timings.as_dict(),
        "intermediate_count": result.intermediate_count,
        "output_records": len(result.output),
        "map_stats": _stats(result.map_stats),
        "reduce_stats": _stats(result.reduce_stats),
    }


def collect_golden() -> dict:
    """Run the pinned workload in every mode; return the fixture doc."""
    w = WordCount()
    inp = w.generate(WORKLOAD["size"], seed=WORKLOAD["seed"],
                     scale=WORKLOAD["scale"])
    spec = w.spec_for_size(WORKLOAD["size"], seed=WORKLOAD["seed"],
                           scale=WORKLOAD["scale"])
    cfg = DeviceConfig.small(WORKLOAD["mps"])
    runs = {}
    for mode in MemoryMode:
        res = run_job(spec, inp, mode=mode, strategy=ReduceStrategy.TR,
                      config=cfg,
                      threads_per_block=WORKLOAD["threads_per_block"],
                      backend="sim")
        runs[mode.value] = _entry(res)

    from repro.mars.framework import run_mars_job

    res = run_mars_job(spec, inp, strategy=ReduceStrategy.TR, config=cfg,
                       threads_per_block=WORKLOAD["threads_per_block"],
                       backend="sim")
    runs["Mars"] = _entry(res)

    return {
        "description": "Golden sim traces: cycle counts and kernel "
                       "counters pinned per memory mode.  Regenerate "
                       "with scripts/gen_golden_traces.py only for an "
                       "intended timing-model change, and review the "
                       "diff.",
        "workload": WORKLOAD,
        "input_records": len(inp),
        "runs": runs,
    }


def collect_dist_golden() -> dict:
    """Run the pinned fault-injected dist job; return the fixture doc.

    ``deterministic=True`` pins task placement (``alive[(shard +
    attempt) % len(alive)]``), the fault plan is fixed, and
    speculation is disabled via a huge straggler floor — so the
    scheduling decisions (assignments, the worker death, every retry
    target) are a stable artifact of the scheduler, pinnable exactly.
    """
    from repro.backend.distributed import DistributedBackend
    from repro.dist import FaultPlan

    w = WordCount()
    inp = w.generate(DIST_WORKLOAD["size"], seed=DIST_WORKLOAD["seed"],
                     scale=DIST_WORKLOAD["scale"])
    spec = w.spec_for_size(DIST_WORKLOAD["size"],
                           seed=DIST_WORKLOAD["seed"],
                           scale=DIST_WORKLOAD["scale"])
    cfg = DeviceConfig.small(2)
    plan = FaultPlan.kill(1, 40, phase="map")
    backend = DistributedBackend(
        workers=DIST_WORKLOAD["workers"], min_records=0,
        split_bytes=DIST_WORKLOAD["split_bytes"], fault_plan=plan,
        deterministic=True, min_straggle_s=3600.0)
    # The memory store is pinned: a spilling shuffle streams the
    # grouped intermediate, which changes the reduce task split.
    res = run_job(spec, inp, backend=backend, strategy=ReduceStrategy.TR,
                  config=cfg, store="memory",
                  threads_per_block=DIST_WORKLOAD["threads_per_block"])
    events = sorted(
        (e.as_dict() for e in backend.last_events
         if e.kind in DIST_EVENT_KINDS),
        key=lambda d: (d["phase"], d["kind"], d["shard"], d["attempt"]))
    return {
        "description": "Golden distributed schedule: deterministic "
                       "task placement, retry targets and fault "
                       "handling pinned under a scripted worker kill. "
                       " Regenerate with scripts/gen_golden_traces.py "
                       "only for an intended scheduler change, and "
                       "review the diff.",
        "workload": dict(DIST_WORKLOAD, fault=plan.describe()),
        "input_records": len(inp),
        "counters": dict(sorted(backend.last_counters.items())),
        "events": events,
        "output_records": len(res.output),
        "intermediate_count": res.intermediate_count,
    }


def main() -> int:
    doc = collect_golden()
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(doc['runs'])} runs, "
          f"{doc['input_records']} input records)")
    dist_doc = collect_dist_golden()
    with open(DIST_FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(dist_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIST_FIXTURE} ({len(dist_doc['events'])} events, "
          f"{dist_doc['counters']} counters)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
