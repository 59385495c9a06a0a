"""ParallelBackend: sharded multi-process execution.

The contract under test: output is *byte-identical* to the fast
backend (same records, same order) for every driver — single-shot,
map-only, streamed, Mars — whether the pool engages or the tiny-input
fallback runs in-process, and BR folds across splits preserve both the
fold result (floats included) and the value counts ``finalize``
receives.
"""

import os
import struct

import pytest

from repro.backend import BACKENDS, ParallelBackend, get_backend
from repro.errors import FrameworkError
from repro.framework import (
    KeyValueSet,
    MapReduceSpec,
    MemoryMode,
    ReduceStrategy,
    run_job,
)
from repro.framework.host import shard_slices
from repro.framework.streaming import run_streamed_job
from repro.gpu import DeviceConfig
from repro.workloads import KMeans, LinearRegression, WordCount

CFG = DeviceConfig.small(2)


def _pooled(workers: int = 2) -> ParallelBackend:
    """A backend that really shards: no tiny-input fallback."""
    return ParallelBackend(workers=workers, min_records=0)


def _wc(scale: float = 0.2):
    w = WordCount()
    inp = w.generate("small", seed=5, scale=scale)
    spec = w.spec_for_size("small", seed=5, scale=scale)
    return spec, inp


# ----------------------------------------------------------------------
# Registry and configuration
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registered(self):
        assert BACKENDS["parallel"] is ParallelBackend
        assert isinstance(get_backend("parallel"), ParallelBackend)

    def test_worker_count_suffix(self):
        assert get_backend("parallel:3").workers == 3

    def test_bad_worker_count_suffix(self):
        with pytest.raises(FrameworkError):
            get_backend("parallel:lots")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert get_backend("parallel").workers == 5

    def test_env_variable_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(FrameworkError, match="REPRO_WORKERS"):
            get_backend("parallel")

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert get_backend("parallel").workers == (os.cpu_count() or 1)
        assert ParallelBackend().workers == (os.cpu_count() or 1)

    def test_backend_env_selects_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "parallel:2")
        assert get_backend(None).workers == 2

    def test_zero_workers_rejected(self):
        with pytest.raises(FrameworkError):
            ParallelBackend(workers=0)


# ----------------------------------------------------------------------
# Output identity with the fast backend
# ----------------------------------------------------------------------


class TestFastParity:
    @pytest.mark.parametrize("strategy", [ReduceStrategy.TR,
                                          ReduceStrategy.BR, None])
    def test_pooled_output_identical(self, strategy):
        spec, inp = _wc()
        kwargs = dict(mode=MemoryMode.SIO, strategy=strategy, config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=_pooled(3), **kwargs)
        assert par.output == fast.output  # identical records, same order
        assert par.intermediate_count == fast.intermediate_count
        assert par.mode == fast.mode
        assert par.strategy == fast.strategy

    def test_fallback_output_identical(self):
        """Tiny inputs skip the pool but produce the same records."""
        spec, inp = _wc()
        backend = ParallelBackend(workers=4, min_records=10 ** 9)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=backend, **kwargs)
        assert par.output == fast.output

    def test_single_worker_identical(self):
        spec, inp = _wc()
        backend = ParallelBackend(workers=1, min_records=0)
        res = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR, config=CFG,
                      backend=backend)
        fast = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR, config=CFG,
                       backend="fast")
        assert res.output == fast.output

    def test_transfer_costs_match_fast(self):
        spec, inp = _wc()
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=_pooled(2), **kwargs)
        assert par.timings.io_in == fast.timings.io_in
        assert par.timings.io_out == fast.timings.io_out
        assert par.timings.map == 0.0 and par.timings.reduce == 0.0

    def test_sharding_counters_reported(self):
        # ~104 KB of input: two 64 KiB map splits; R = 2 workers x 2.
        spec, inp = _wc(scale=1.0)
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR, config=CFG,
                      backend=_pooled(2), store="memory")
        assert par.map_stats.extra["parallel_tasks"] == 2
        assert par.map_stats.extra["parallel_workers"] == 2
        assert par.reduce_stats.extra["parallel_tasks"] == 4

    def test_auto_mode(self):
        spec, inp = _wc()
        par = run_job(spec, inp, mode="auto", strategy=ReduceStrategy.TR,
                      config=CFG, backend=_pooled(2))
        fast = run_job(spec, inp, mode="auto", strategy=ReduceStrategy.TR,
                       config=CFG, backend="fast")
        # Both resolve 'auto' with the same cost-model tuner, so the
        # chosen mode matches and the output is backend-independent.
        assert isinstance(par.mode, MemoryMode)
        assert par.mode == fast.mode
        assert par.output == fast.output


# ----------------------------------------------------------------------
# BR folds across splits
# ----------------------------------------------------------------------


def _mean_spec() -> MapReduceSpec:
    """BR workload whose finalize *uses the count*: integer mean.

    If splitting the input dropped or double-counted values, the mean
    would come out wrong even though the sum survived.
    """

    def m(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    def combine(a, b):
        return struct.pack("<Q", struct.unpack("<Q", a)[0]
                           + struct.unpack("<Q", b)[0])

    def finalize(key, acc, count):
        return key, struct.pack("<Q", struct.unpack("<Q", acc)[0] // count)

    def r(key, values, emit, const):
        vals = [struct.unpack("<Q", v.to_bytes())[0] for v in values]
        emit(key.to_bytes(), struct.pack("<Q", sum(vals) // len(vals)))

    return MapReduceSpec(name="mean", map_record=m, reduce_record=r,
                         combine=combine, finalize=finalize)


class TestPartialCombine:
    def test_combine_preserves_counts(self):
        spec = _mean_spec()
        inp = KeyValueSet()
        for i in range(300):
            inp.append(struct.pack("<I", i % 7), struct.pack("<Q", i))
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=_pooled(4), **kwargs)
        assert par.output == fast.output
        assert len(par.output) == 7

    def test_float_br_byte_identical(self):
        """Workers fold each BR group in full, in emission order, so
        float accumulators match the fast backend bit for bit."""
        k = KMeans()
        inp = k.generate("small", seed=3, scale=0.25)
        spec = k.spec_for_seed(3)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=_pooled(3), **kwargs)
        assert par.output == fast.output

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("workload", [KMeans, LinearRegression],
                             ids=["KM", "LR"])
    def test_float_br_pooled_identical(self, workload, workers):
        """Float BR with the pool engaged: any regrouping of a fold
        across shards would change the float accumulators."""
        w = workload()
        inp = w.generate("small", seed=3, scale=0.5)
        spec = w.spec_for_size("small", seed=3, scale=0.5)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp, backend=_pooled(workers), **kwargs)
        assert par.output == fast.output


# ----------------------------------------------------------------------
# Degenerate inputs (the PR 3 fuzzer's corners)
# ----------------------------------------------------------------------


class TestDegenerate:
    def _spec(self, map_fn, reduce_fn=None):
        return MapReduceSpec(name="degen", map_record=map_fn,
                             reduce_record=reduce_fn)

    def test_empty_input(self):
        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        res = run_job(self._spec(ident), KeyValueSet(), mode=MemoryMode.SIO,
                      config=CFG, backend=_pooled(4))
        assert len(res.output) == 0

    def test_empty_input_with_reduce(self):
        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        def count(key, values, emit, const):
            emit(key.to_bytes(), struct.pack("<I", len(values)))

        res = run_job(self._spec(ident, count), KeyValueSet(),
                      mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG, backend=_pooled(4))
        assert len(res.output) == 0

    def test_single_hot_key(self):
        """Every record lands in one group: the reduce range partition
        degenerates to a single non-empty range."""

        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        def total(key, values, emit, const):
            s = sum(int.from_bytes(v.to_bytes(), "little") for v in values)
            emit(key.to_bytes(), struct.pack("<I", s & 0xFFFFFFFF))

        inp = KeyValueSet()
        for i in range(64):
            inp.append(b"only", struct.pack("<I", i))
        spec = self._spec(ident, total)
        fast = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR, config=CFG,
                       backend="fast")
        par = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.TR, config=CFG,
                      backend=_pooled(4))
        assert par.output == fast.output
        assert len(par.output) == 1

    def test_zero_output_map(self):
        def swallow(key, value, emit, const):
            pass

        inp = KeyValueSet()
        for i in range(40):
            inp.append(struct.pack("<I", i), b"x")
        res = run_job(self._spec(swallow), inp, mode=MemoryMode.SIO,
                      config=CFG, backend=_pooled(4))
        assert len(res.output) == 0

    def test_fewer_records_than_workers(self):
        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        inp = KeyValueSet([(b"a", b"1"), (b"b", b"2")])
        res = run_job(self._spec(ident), inp, mode=MemoryMode.SIO,
                      config=CFG, backend=_pooled(8))
        assert list(res.output) == [(b"a", b"1"), (b"b", b"2")]

    def test_bad_emit_type_surfaces(self):
        def bad(key, value, emit, const):
            emit("not-bytes", b"v")

        inp = KeyValueSet([(b"k", b"v")] * 8)
        with pytest.raises(FrameworkError):
            run_job(self._spec(bad), inp, mode=MemoryMode.SIO, config=CFG,
                    backend=_pooled(2))


# ----------------------------------------------------------------------
# Streamed and Mars drivers
# ----------------------------------------------------------------------


class TestOtherDrivers:
    def test_streamed_identical_to_fast(self):
        spec, inp = _wc(scale=0.3)
        kwargs = dict(strategy=ReduceStrategy.TR, n_batches=3, config=CFG)
        fast = run_streamed_job(spec, inp, backend="fast", **kwargs)
        par = run_streamed_job(spec, inp, backend=_pooled(2), **kwargs)
        assert par.job.output == fast.job.output
        assert len(par.batches) == len(fast.batches)
        for bf, bp in zip(fast.batches, par.batches):
            assert bf.records == bp.records
            assert bf.upload_cycles == bp.upload_cycles

    def test_streamed_br_skips_partial_combine(self):
        """Batch outputs are flattened between Map and Shuffle; the
        streamed BR job still matches the fast backend exactly."""
        spec, inp = _wc(scale=0.3)
        kwargs = dict(strategy=ReduceStrategy.BR, n_batches=3, config=CFG)
        fast = run_streamed_job(spec, inp, backend="fast", **kwargs)
        par = run_streamed_job(spec, inp, backend=_pooled(2), **kwargs)
        assert par.job.output == fast.job.output

    def test_mars_identical_to_fast(self):
        from repro.mars.framework import run_mars_job

        spec, inp = _wc()
        fast = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                            config=CFG, backend="fast")
        par = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                           config=CFG, backend=_pooled(2))
        assert par.output == fast.output
        assert par.mode == fast.mode == "Mars"


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_pool_released_after_job(self):
        spec, inp = _wc()
        backend = _pooled(2)
        ctx_seen = {}
        orig_open = backend.open

        def spy_open(plan):
            ctx = orig_open(plan)
            ctx_seen["ctx"] = ctx
            return ctx

        backend.open = spy_open
        run_job(spec, inp, mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                config=CFG, backend=backend)
        assert ctx_seen["ctx"].transport is None

    def test_pool_released_on_error(self):
        def boom(key, value, emit, const):
            raise RuntimeError("kernel panic")

        spec = MapReduceSpec(name="boom", map_record=boom)
        inp = KeyValueSet([(b"k", b"v")] * 32)
        backend = _pooled(2)
        ctx_seen = {}
        orig_open = backend.open

        def spy_open(plan):
            ctx = orig_open(plan)
            ctx_seen["ctx"] = ctx
            return ctx

        backend.open = spy_open
        with pytest.raises(RuntimeError):
            run_job(spec, inp, mode=MemoryMode.SIO, config=CFG,
                    backend=backend)
        assert ctx_seen["ctx"].transport is None

    def test_backend_reusable_across_jobs(self):
        spec, inp = _wc()
        backend = _pooled(2)
        for _ in range(2):
            res = run_job(spec, inp, mode=MemoryMode.SIO,
                          strategy=ReduceStrategy.TR, config=CFG,
                          backend=backend)
            assert len(res.output) > 0


# ----------------------------------------------------------------------
# shard_slices (unit; the property suite fuzzes it)
# ----------------------------------------------------------------------


class TestShardSlices:
    def test_covers_and_balances(self):
        slices = shard_slices(10, 3)
        assert slices == [(0, 4), (4, 7), (7, 10)]

    def test_fewer_records_than_shards(self):
        assert shard_slices(2, 8) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert shard_slices(0, 4) == []

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_slices(5, 0)
