"""Slow-tier parallel backend tests: medium inputs, worker sweeps.

Tier-1 (tests/backend/test_parallel.py) proves the mechanism on small
inputs; this tier proves it at the sizes the backend exists for, where
the pool genuinely engages (inputs far above ``DEFAULT_MIN_RECORDS``)
and across worker counts.
"""

import pytest

from repro.backend import ParallelBackend
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.streaming import run_streamed_job
from repro.workloads import KMeans, WordCount

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def wc_medium():
    w = WordCount()
    return (w.spec_for_size("medium", seed=0), w.generate("medium", seed=0))


@pytest.fixture(scope="module")
def wc_fast_tr(wc_medium):
    spec, inp = wc_medium
    return run_job(spec, inp, mode=MemoryMode.SIO,
                   strategy=ReduceStrategy.TR, backend="fast")


class TestMediumWordCount:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep_identical(self, wc_medium, wc_fast_tr, workers):
        spec, inp = wc_medium
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR,
                      backend=ParallelBackend(workers=workers))
        assert par.output == wc_fast_tr.output
        assert par.intermediate_count == wc_fast_tr.intermediate_count

    def test_br_identical(self, wc_medium):
        spec, inp = wc_medium
        fast = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.BR, backend="fast")
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.BR,
                      backend=ParallelBackend(workers=4))
        assert par.output == fast.output

    def test_default_threshold_engages_pool(self, wc_medium):
        """Medium wordcount is far above DEFAULT_MIN_RECORDS, so a
        plain ParallelBackend(workers=2) must actually shard: ~208 KB
        of input is four 64 KiB map splits."""
        spec, inp = wc_medium
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR,
                      backend=ParallelBackend(workers=2))
        assert par.map_stats.extra["parallel_tasks"] == 4

    def test_streamed_medium(self, wc_medium):
        spec, inp = wc_medium
        kwargs = dict(strategy=ReduceStrategy.TR, n_batches=4)
        fast = run_streamed_job(spec, inp, backend="fast", **kwargs)
        par = run_streamed_job(spec, inp,
                               backend=ParallelBackend(workers=2),
                               **kwargs)
        assert par.job.output == fast.job.output


class TestMediumKMeans:
    def test_br_float_byte_identical(self):
        k = KMeans()
        inp = k.generate("medium", seed=0)
        spec = k.spec_for_size("medium", seed=0)
        fast = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.BR, backend="fast")
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.BR,
                      backend=ParallelBackend(workers=4))
        assert par.output == fast.output
