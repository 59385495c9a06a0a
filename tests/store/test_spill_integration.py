"""Acceptance tests for the spillable shuffle on whole jobs.

The headline claim: a spill budget below 10% of the measured working
set still produces output *byte-identical* to the unbounded memory
store, on both functional backends, while the store's own accounting
shows the tracked peak stayed under the budget.  Plus the spill
telemetry plumbing — KernelStats extras, the run ledger and the
tracer spans all carry the accounting.
"""

import glob
import os

import pytest

from repro.backend import DistributedBackend
from repro.framework import ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.records import KeyValueSet
from repro.obs.ledger import ledger_path, read_ledger
from repro.obs.tracer import Tracer
from repro.workloads import KMeans, WordCount

WORKLOADS = {"wordcount": WordCount, "kmeans": KMeans}


def _backend(name):
    if name == "dist":
        return DistributedBackend(workers=2, min_records=0)
    return name


def _run(workload_cls, backend, **kwargs):
    w = workload_cls()
    inp = w.generate("medium", seed=3)
    spec = w.spec_for_size("medium", seed=3)
    return run_job(spec, inp, strategy=ReduceStrategy.TR,
                   backend=_backend(backend), **kwargs)


@pytest.mark.parametrize("backend", ["fast", "dist"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_budget_spill_is_byte_identical(workload, backend):
    cls = WORKLOADS[workload]
    baseline = _run(cls, backend)  # unbounded memory store

    # Measure the working set: an effectively-infinite budget keeps
    # everything in the tracked buffer, so its peak *is* the set.
    probe = _run(cls, backend, store="spill", memory_budget=1 << 30)
    working_set = probe.reduce_stats.extra["store_peak_bytes"]
    assert working_set > 0
    if backend == "fast":
        # Everything fits: nothing spills.  (The dist backend's
        # workers always flush their tail to one run file apiece —
        # only paths cross the process boundary — so its run count
        # never reaches zero; the peak still measures the set.)
        assert probe.reduce_stats.extra["spill_runs"] == 0
    assert probe.output == baseline.output

    # Under 10% of that, the job must spill — and still match byte
    # for byte, with the tracked peak bounded by the budget.
    budget = max(64, working_set // 10)
    spilled = _run(cls, backend, store="spill", memory_budget=budget)
    extra = spilled.reduce_stats.extra
    floor = 2 if backend == "dist" else 0  # the mandatory flushes
    assert extra["spill_runs"] > floor
    assert extra["spilled_bytes"] > 0
    assert extra["store_peak_bytes"] <= budget
    assert spilled.output == baseline.output
    assert spilled.intermediate_count == baseline.intermediate_count


def test_streamed_spill_matches_memory():
    """The chunked driver routes batches into a spill sink store."""
    from repro.framework.streaming import run_streamed_job

    w = WordCount()
    inp = w.generate("small", seed=5)
    spec = w.spec_for_size("small", seed=5)
    kwargs = dict(strategy=ReduceStrategy.TR, backend="fast",
                  n_batches=6)
    plain = run_streamed_job(spec, inp, **kwargs)
    spilled = run_streamed_job(spec, inp, store="spill",
                               memory_budget=2048, **kwargs)
    assert spilled.job.output == plain.job.output
    assert spilled.job.reduce_stats.extra["spill_runs"] > 0


def test_ledger_records_spill_accounting(monkeypatch):
    # Pin the defaults: the suite also runs under REPRO_STORE=spill,
    # and the second half asserts what an *unconfigured* run records.
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
    result = _run(WordCount, "fast", store="spill", memory_budget=4096)
    assert result.reduce_stats.extra["spill_runs"] > 0
    records = read_ledger(ledger_path())
    assert records, "job should have appended a ledger record"
    rec = records[-1]
    assert rec["store"] == "spill"
    assert rec["spill_runs"] > 0
    assert rec["spilled_bytes"] > 0

    # A memory-store run reports the policy but no spill counters.
    _run(WordCount, "fast")
    rec = read_ledger(ledger_path())[-1]
    assert rec["store"] is None
    assert rec["spill_runs"] is None


@pytest.mark.parametrize("backend", ["fast", "dist"])
def test_trace_spans_carry_spill_attrs(backend):
    tracer = Tracer(wall_clock=True)
    _run(WordCount, backend, store="spill", memory_budget=4096,
         tracer=tracer)
    spans = tracer.find("shuffle_exec")
    assert spans, "shuffle span missing"
    attrs = spans[0].attrs
    assert attrs["spill_runs"] > 0
    assert attrs["spilled_bytes"] > 0


# ----------------------------------------------------------------------
# Error paths must leave no run files behind
# ----------------------------------------------------------------------


def _map_identity(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def _map_boom(key, value, emit, const):
    raise ValueError("boom")


def _reduce_boom(key, values, emit, const):
    raise ValueError("boom")


def _tiny_input(n=64):
    inp = KeyValueSet()
    for i in range(n):
        inp.append(b"k%d" % (i % 5), i.to_bytes(4, "little"))
    return inp


def _spill_dirs(root) -> list[str]:
    return glob.glob(os.path.join(str(root), "repro-spill-*"))


class TestErrorCleanup:
    def test_fast_reduce_error_leaves_no_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spec = MapReduceSpec(name="boom", map_record=_map_identity,
                             reduce_record=_reduce_boom)
        with pytest.raises(ValueError, match="boom"):
            run_job(spec, _tiny_input(), strategy=ReduceStrategy.TR,
                    backend="fast", store="spill", memory_budget=64)
        assert _spill_dirs(tmp_path) == []

    def test_dist_worker_error_leaves_no_runs(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spec = MapReduceSpec(name="boom", map_record=_map_boom,
                             reduce_record=_reduce_boom)
        with pytest.raises(Exception):
            run_job(spec, _tiny_input(), strategy=ReduceStrategy.TR,
                    backend=DistributedBackend(workers=2, min_records=0),
                    store="spill", memory_budget=64)
        assert _spill_dirs(tmp_path) == []
