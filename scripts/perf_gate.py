"""CI perf-regression gate: machine-neutral ratios the backends must hold.

Every measured check is a ratio of two backends run in fresh
subprocesses on the same runner, so a slow or shared runner cancels
out while a regression in one path (whose cost the other does not
share) shows up directly.  Times are best-of-``--repeats``
``time.process_time`` seconds of one small SIO/TR job.

1. **sim/fast** on small wordcount and kmeans: the simulator's host
   cost.  The ratio must stay at or below its baseline times
   ``1 + tolerance``.  When the run ledger holds this gate's own sim
   and fast runs of the same input (see :func:`_ledger_ratios`), the
   ratio of their fastest walls is the baseline, with the sharp
   ``LEDGER_TOLERANCE``.  Otherwise the committed ``SIM_OVER_FAST``
   ratio is, with the wide ``COMMITTED_TOLERANCE``: sim/fast ratios
   swing tens of percent between CPU generations and Python builds on
   an identical tree (observed: 27.5 against a 25% limit of 24.3), so
   a foreign snapshot is only a backstop against a collapse.
2. **fast/columnar** on small kmeans (at least
   ``KMEANS_COLUMNAR_FLOOR``) and small wordcount (at least
   ``WORDCOUNT_COLUMNAR_FLOOR``: columnar beats scalar on ragged
   keys).  Scalar ``fast`` is measured once per workload and shared
   with check 1.
3. **autotune**: ``BENCH_autotune.json`` (written by ``repro-bench
   autotune``) must report both gates true and its numbers must bear
   them out: every tuned case within the per-case bar of the best
   measured fixed configuration, and the tuned total below every fixed
   single-mode policy.  No re-measurement: the artefact is
   deterministic simulated cycles.

Exit 1 when any check fails; each failure prints its own remedy.

Usage::

    PYTHONPATH=src python scripts/perf_gate.py [--repeats 3]
        [--ledger .repro/runs.jsonl]
        [--autotune-baseline BENCH_autotune.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

#: Committed sim/fast CPU ratio per small case, measured with the
#: simulator hot-path optimisation (Python 3.11.7, best of 12): the
#: baseline when the ledger has no history for a workload.
SIM_OVER_FAST = {"wordcount": 19.45, "kmeans": 2.38}
#: Allowed sim/fast increase over a same-machine ledger baseline.
LEDGER_TOLERANCE = 0.25
#: Allowed sim/fast increase over the cross-machine ``SIM_OVER_FAST``.
COMMITTED_TOLERANCE = 0.75
#: Minimum fast/columnar CPU-time ratio on small kmeans.
KMEANS_COLUMNAR_FLOOR = 5.0
#: Minimum fast/columnar CPU-time ratio on small wordcount.  Twenty
#: ``--repeats 3`` measurements read 2.02-5.49 (median 3.16; 2-vCPU
#: x86, Python 3.11): the floor sits 1.3x below the lowest of them.
WORDCOUNT_COLUMNAR_FLOOR = 1.5

#: One warm-up job, then best-of-N CPU seconds, in a fresh interpreter
#: so measurements cannot interfere through shared heap state.  The
#: warm-up pays the cold imports and caches, so it stays out of the
#: ledger: only the timed jobs become baseline candidates.
_MEASURE_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from repro.config import override
from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.workloads import KMeans, WordCount
w = {"wordcount": WordCount, "kmeans": KMeans}[sys.argv[2]]()
inp = w.generate("small", seed=0)
spec = w.spec_for_size("small", seed=0)

def run():
    run_job(spec, inp, mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
            backend=sys.argv[4])

with override(ledger=False):
    run()
cpu = float("inf")
for _ in range(int(sys.argv[3])):
    c0 = time.process_time()
    run()
    cpu = min(cpu, time.process_time() - c0)
print(cpu)
"""


def _measure_tree(workload: str, backend: str, repeats: int) -> float:
    """Best-of-``repeats`` CPU seconds of one small ``workload`` job on
    ``backend``, run from this source tree in a fresh subprocess."""
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE_CODE, _ROOT, workload,
         str(repeats), backend],
        capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def _ledger_ratios(path: str) -> dict[str, float]:
    """Per-workload sim/fast wall ratio from the run ledger.

    Counts only runs like the gate's own: a sim or fast record whose
    ``config`` is exactly ``{"backend": ["arg", <backend>]}``, i.e.
    ``run_job(backend=...)`` with every other knob at its default.
    That drops sanitizer runs (``check``), CLI runs (source ``flag``)
    and runs under ``REPRO_*`` settings, whose costs differ; three
    sanitized sim runs would otherwise inflate the wordcount baseline
    about threefold.  Records without ``config`` (schema < 3) are
    skipped.  The device is not in the ledger, so an API sim run on a
    smaller device (``DeviceConfig.small(n)``, what ``repro-trace
    --mps`` builds) still counts.

    Only runs of the same input (``input_digest``), mode and strategy
    are compared; each such group contributes the ratio of its fastest
    sim wall time to its fastest fast wall time, and a workload's
    baseline is the median over its groups.  Minima, like the gate's
    best-of-N: a median would count the jobs a busy host slowed down,
    and the cold warm-up jobs that older ledgers hold.
    """
    from repro.obs.ledger import read_ledger

    by_input: dict[tuple, dict[str, list[float]]] = {}
    for rec in read_ledger(path):
        backend = rec.get("backend")
        wall = rec.get("wall_s")
        if (backend not in ("sim", "fast") or not wall
                or rec.get("config") != {"backend": ["arg", backend]}):
            continue
        key = (rec.get("workload"), rec.get("input_digest"),
               rec.get("mode"), rec.get("strategy"))
        by_input.setdefault(key, {}).setdefault(backend, []).append(wall)
    ratios: dict[str, list[float]] = {}
    for (workload, _digest, _mode, _strategy), sides in by_input.items():
        if sides.get("sim") and sides.get("fast"):
            ratios.setdefault(str(workload), []).append(
                min(sides["sim"]) / min(sides["fast"])
            )
    return {w: median(rs) for w, rs in ratios.items()}


def _check_sim_over_fast(workload, sim_cpu, fast_cpu, ledger_base) -> bool:
    ratio = sim_cpu / fast_cpu
    if workload in ledger_base:
        base, source = ledger_base[workload], "ledger"
        limit = base * (1.0 + LEDGER_TOLERANCE)
    else:
        base, source = SIM_OVER_FAST[workload], "bench"
        limit = base * (1.0 + COMMITTED_TOLERANCE)
    ok = ratio <= limit
    print(f"{workload}-small: sim {sim_cpu:.3f}s-cpu fast "
          f"{fast_cpu:.3f}s-cpu ratio {ratio:.1f} "
          f"(baseline {base:.1f} [{source}], limit {limit:.1f}) "
          f"{'ok' if ok else 'FAIL'}")
    if not ok:
        print("perf-gate: the simulator's host cost regressed; profile "
              "it with\n"
              "  python -m bench --workload sim-wc --trace 1\n"
              "  PYTHONPATH=src python -m repro.analysis.cli table2 "
              "--size small --profile\n"
              "or, if the extra cost is intended, set SIM_OVER_FAST in "
              "scripts/perf_gate.py to the ratios a --repeats 12 run "
              "prints with an empty ledger.", file=sys.stderr)
    return ok


def _check_columnar(workload, fast_cpu, col_cpu, floor, bench) -> bool:
    speedup = fast_cpu / col_cpu
    ok = speedup >= floor
    print(f"{workload}-small: fast {fast_cpu:.3f}s-cpu columnar "
          f"{col_cpu:.3f}s-cpu speedup {speedup:.1f}x "
          f"(floor {floor:.1f}x) {'ok' if ok else 'FAIL'}")
    if not ok:
        print("perf-gate: the columnar path fell below its floor; see "
              "where its time goes with\n"
              f"  python -m bench --workload {bench} --trace 1",
              file=sys.stderr)
    return ok


def _check_autotune(path: str) -> bool:
    from repro.tune.bench import check_report

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: autotune artefact unreadable: {exc}",
              file=sys.stderr)
        return False
    gates = doc.get("gates", {})
    problems = [f"gate {name} is false"
                for name, passed in sorted(gates.items()) if not passed]
    problems += check_report(doc)
    print(f"autotune: {len(doc.get('cases', []))} cases, gates {gates} "
          f"{'FAIL' if problems else 'ok'}")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    if problems:
        print("perf-gate: the autotuner's committed benchmark no longer "
              "passes its gates; regenerate with\n"
              "  PYTHONPATH=src python -m repro.analysis.cli autotune\n"
              "and investigate the cost model if the fresh run still "
              "fails.", file=sys.stderr)
    return not problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--ledger",
                   default=os.path.join(_ROOT, ".repro", "runs.jsonl"),
                   help="run ledger to derive per-workload sim/fast "
                        "baselines from (falls back to SIM_OVER_FAST)")
    p.add_argument("--autotune-baseline",
                   default=os.path.join(_ROOT, "BENCH_autotune.json"),
                   help="committed autotuner benchmark artefact to "
                        "gate-check")
    args = p.parse_args(argv)

    ledger_base = _ledger_ratios(args.ledger)
    fast = {}
    results = []
    for workload in SIM_OVER_FAST:
        sim_cpu = _measure_tree(workload, "sim", args.repeats)
        fast[workload] = _measure_tree(workload, "fast", args.repeats)
        results.append(_check_sim_over_fast(workload, sim_cpu,
                                            fast[workload], ledger_base))
    for workload, floor, bench in (
            ("kmeans", KMEANS_COLUMNAR_FLOOR, "km-auto"),
            ("wordcount", WORDCOUNT_COLUMNAR_FLOOR, "wc-columnar")):
        col_cpu = _measure_tree(workload, "columnar", args.repeats)
        results.append(_check_columnar(workload, fast[workload], col_cpu,
                                       floor, bench))
    results.append(_check_autotune(args.autotune_baseline))

    if not all(results):
        return 1
    print("perf-gate: all ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
