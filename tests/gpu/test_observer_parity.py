"""Observer parity: a timeline or the sanitizer never changes a job.

The engine runs one event loop whether or not anything observes the
launch; observers only add calls at fixed points.  Every row below
runs one job three ways and demands the same simulated result from
each leg:

* **plain** — ``check=False, tracer=None``;
* **timeline** — a :class:`~repro.obs.tracer.Tracer` recording every
  block's warps, polls uncoalesced;
* **strict** — ``check="strict"``, the sanitizer's hooks on every
  instruction.

Each leg sets both observers explicitly, so the plain leg stays plain
under ``REPRO_CHECK=1``.  Compared per leg: total cycles, the phase
timings, a digest over every counter of the map and reduce stats, the
stall dicts (in key order) and the output.  The digest leaves out the
analysis-cache hit/miss split by itself: it counts host-side memo
lookups, and the kernels issue per-lane address lists (more lookups,
same transaction counts) whenever a sanitizer is attached.

The timeline leg also checks what it recorded: per category, the
recorded intervals add up to the stall totals the engine charged, so
an observer hook that records a different interval from the one the
loop charges fails here even though the cycles agree.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.gpu.analysis_cache import caches, clear_all_caches
from repro.gpu.config import DeviceConfig
from repro.mars.framework import run_mars_job
from repro.obs.ledger import kernel_digest
from repro.obs.tracer import Tracer
from repro.workloads import InvertedIndex, KMeans, WordCount

SMALL = DeviceConfig.small(1)

#: The heaviest row runs in the slow tier, keeping this file's tier-1
#: wall under ~30 s.
_SLOW = {"WordCount-SIO-BR"}


@lru_cache(maxsize=None)
def _job(cls):
    w = cls()
    return w.spec_for_size("small", seed=0), w.generate("small", seed=0)


def _sim(cls, mode, strategy, config=SMALL, **kw):
    def run(**observers):
        spec, inp = _job(cls)
        return run_job(spec, inp, mode=mode, strategy=strategy,
                       config=config, backend="sim", tune=False,
                       **kw, **observers)
    return run


def _mars(**observers):
    spec, inp = _job(WordCount)
    return run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                        config=SMALL, backend="sim", **observers)


def _rows():
    rows = []
    for cls in (WordCount, KMeans):
        for mode in MemoryMode:
            for strategy in ReduceStrategy:
                if mode is MemoryMode.GT and strategy is ReduceStrategy.BR:
                    continue  # rejected: BR writes in place, GT caches reads
                row = f"{cls.__name__}-{mode.value}-{strategy.value}"
                rows.append(pytest.param(
                    _sim(cls, mode, strategy), id=row,
                    marks=[pytest.mark.slow] if row in _SLOW else []))
    for mode in MemoryMode:
        rows.append(pytest.param(_sim(InvertedIndex, mode, None),
                                 id=f"InvertedIndex-{mode.value}-map-only"))
    rows += [
        pytest.param(_mars, id="Mars-WordCount"),
        pytest.param(_sim(WordCount, "SIO", "TR", DeviceConfig.fermi()),
                     id="WordCount-SIO-TR-fermi-l2"),
        pytest.param(_sim(WordCount, "SIO", "TR", yield_sync=False),
                     id="WordCount-SIO-TR-spin-poll"),
        pytest.param(_sim(WordCount, "SIO", "TR", DeviceConfig()),
                     id="WordCount-SIO-TR-gtx280"),
    ]
    return rows


def _leg(run, *, check, tracer):
    # Every leg starts from cold analysis caches with zeroed counters.
    clear_all_caches()
    for c in caches():
        c.reset_counters()
    return run(check=check, tracer=tracer)


def _stats(result):
    stats = [result.map_stats]
    if result.reduce_stats is not None:
        stats.append(result.reduce_stats)
    return stats


def _fingerprint(result):
    stats = _stats(result)
    return {
        "total_cycles": result.total_cycles,
        "timings": result.timings.as_dict(),
        "kernel_digest": kernel_digest(*stats),
        # In key order too: ``stall_breakdown`` sums in that order.
        "stall_cycles": [list(st.stall_cycles.items()) for st in stats],
        "output": result.output,
    }


def _recorded_stalls(tracer):
    out: dict[str, float] = {}
    for e in tracer.device_events:
        if e.category != "mark":
            out[e.category] = out.get(e.category, 0.0) + e.duration
    return out


@pytest.mark.parametrize("run", _rows())
def test_observers_leave_the_job_unchanged(run):
    plain = _leg(run, check=False, tracer=None)
    tracer = Tracer(trace_blocks=None, coalesce_polls=False)
    traced = _leg(run, check=False, tracer=tracer)
    strict = _leg(run, check="strict", tracer=None)

    want = _fingerprint(plain)
    assert _fingerprint(traced) == want
    assert _fingerprint(strict) == want
    assert strict.check_report is not None and strict.check_report.ok

    charged: dict[str, float] = {}
    for st in _stats(plain):
        for cat, cycles in st.stall_cycles.items():
            charged[cat] = charged.get(cat, 0.0) + cycles
    recorded = _recorded_stalls(tracer)
    assert recorded.keys() == charged.keys()
    for cat, cycles in charged.items():
        assert recorded[cat] == pytest.approx(cycles, rel=1e-9), cat
