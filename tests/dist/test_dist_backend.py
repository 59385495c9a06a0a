"""DistributedBackend: registry, env wiring, split sizing, FaultPlan
units, telemetry, the close()-reaps-everything contract, and output
identity with the fast backend.

The identity contract: output is *byte-identical* to the fast backend
(same records, same order) for every driver — single-shot, map-only,
streamed, Mars — whether the cluster starts or the tiny-input
fallback runs in-process, and BR folds across splits preserve both the
fold result (floats included) and the value counts ``finalize``
receives.
"""

import multiprocessing
import os
import struct

import pytest

from repro.backend import BACKENDS, DistributedBackend, get_backend
from repro.backend.distributed import DEFAULT_SPLIT_BYTES, \
    resolve_split_bytes
from repro.dist import FaultPlan, WorkerFault
from repro.errors import FrameworkError
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.host import shard_slices
from repro.framework.records import KeyValueSet
from repro.framework.streaming import run_streamed_job
from repro.gpu import DeviceConfig
from repro.workloads import KMeans, LinearRegression, WordCount

CFG = DeviceConfig.small(2)


def _sharded(workers: int = 2) -> DistributedBackend:
    """A backend that really shards: no tiny-input fallback."""
    return DistributedBackend(workers=workers, min_records=0)


def _wc(scale: float = 0.2):
    w = WordCount()
    inp = w.generate("small", seed=5, scale=scale)
    spec = w.spec_for_size("small", seed=5, scale=scale)
    return spec, inp


def _ident_spec(reduce_fn=None):
    def ident(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    return MapReduceSpec(name="ident", map_record=ident,
                         reduce_record=reduce_fn)


def _count_spec():
    def tokens(key, value, emit, const):
        for tok in value.to_bytes().split():
            emit(tok, b"\x01")

    def count(key, values, emit, const):
        emit(key.to_bytes(), len(values).to_bytes(4, "little"))

    return MapReduceSpec(name="count", map_record=tokens,
                         reduce_record=count)


def _words(n=120):
    inp = KeyValueSet()
    for i in range(n):
        inp.append(i.to_bytes(4, "little"),
                   f"alpha beta w{i % 7} gamma".encode())
    return inp


class TestRegistryAndEnv:
    def test_dist_registered(self):
        assert "dist" in BACKENDS
        assert isinstance(get_backend("dist"), DistributedBackend)

    def test_dist_n_pins_workers(self):
        b = get_backend("dist:3")
        assert isinstance(b, DistributedBackend)
        assert b.workers == 3

    def test_dist_bad_counts_rejected(self):
        with pytest.raises(FrameworkError):
            get_backend("dist:0")
        with pytest.raises(FrameworkError):
            get_backend("dist:x")
        with pytest.raises(FrameworkError):
            DistributedBackend(workers=0)

    def test_env_selects_dist(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "dist:2")
        b = get_backend(None)
        assert isinstance(b, DistributedBackend)
        assert b.workers == 2

    def test_registered(self):
        assert BACKENDS["dist"] is DistributedBackend

    def test_worker_count_suffix(self):
        assert get_backend("dist:1").workers == 1
        assert get_backend("dist:5").workers == 5

    def test_bad_worker_count_suffix(self):
        with pytest.raises(FrameworkError, match="dist:<n>"):
            get_backend("dist:lots")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "dist")
        assert get_backend(None).workers == (os.cpu_count() or 1)
        # An argument wins whole: a bare "dist" takes no count from
        # the environment.
        monkeypatch.setenv("REPRO_BACKEND", "dist:5")
        assert get_backend("dist").workers == (os.cpu_count() or 1)

    def test_env_variable_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "dist:many")
        with pytest.raises(FrameworkError, match="REPRO_BACKEND"):
            get_backend(None)

    def test_backend_env_takes_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "dist:3")
        assert get_backend(None).workers == 3

    def test_zero_workers_rejected(self):
        for workers in (0, -1):
            with pytest.raises(FrameworkError):
                DistributedBackend(workers=workers)

    def test_default_is_cpu_count(self):
        assert get_backend("dist").workers == (os.cpu_count() or 1)
        assert DistributedBackend().workers == (os.cpu_count() or 1)

    def test_split_bytes_env(self):
        assert resolve_split_bytes() == DEFAULT_SPLIT_BYTES
        assert resolve_split_bytes(4096) == 4096
        assert DistributedBackend(workers=2).split_bytes == DEFAULT_SPLIT_BYTES
        assert DistributedBackend(workers=2,
                                  split_bytes=4096).split_bytes == 4096
        with pytest.raises(FrameworkError):
            resolve_split_bytes(0)
        with pytest.raises(FrameworkError):
            DistributedBackend(workers=2, split_bytes=0)


class TestFaultPlanUnits:
    def test_compose_and_query(self):
        plan = FaultPlan.kill(0, 5) + FaultPlan.delay(1, 0.5, shard=2)
        assert bool(plan)
        assert len(plan.faults) == 2
        assert plan.for_worker(0)[0].kind == "kill"
        assert plan.for_worker(1)[0].kind == "delay"
        assert plan.for_worker(9) == ()
        assert not FaultPlan.none()

    def test_seeded_is_deterministic(self):
        a, b = FaultPlan.seeded(42), FaultPlan.seeded(42)
        assert a == b
        assert a.faults[0].kind == "kill"
        assert 0 <= a.faults[0].worker < 2
        assert a.faults[0].after_records >= 1
        # Different seeds eventually differ.
        assert any(FaultPlan.seeded(s) != a for s in range(20))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFault(worker=0, kind="explode")

    def test_wire_round_trip(self):
        f = WorkerFault(worker=1, kind="delay", seconds=0.25, shard=3,
                        phase="map")
        assert WorkerFault.from_wire(f.to_wire()) == f

    def test_describe(self):
        docs = (FaultPlan.kill(1, 7) + FaultPlan.drop(0, 3)).describe()
        assert [d["kind"] for d in docs] == ["kill", "drop"]


class TestSplitSizing:
    def test_splits_cover_and_respect_limit(self):
        inp = KeyValueSet()
        for i in range(40):
            inp.append(b"k" * 4, b"v" * 12)  # record_cost = 32 each
        b = DistributedBackend(workers=2, split_bytes=100)
        slices = b._split_slices(inp)
        # Contiguous cover of [0, 40).
        assert slices[0][0] == 0 and slices[-1][1] == 40
        for (_, hi), (lo2, _) in zip(slices, slices[1:]):
            assert hi == lo2
        # 32 bytes/record under a 100-byte limit -> 3 records per split.
        assert all(hi - lo <= 3 for lo, hi in slices)
        assert len(slices) == 14

    def test_oversized_record_gets_own_split(self):
        inp = KeyValueSet()
        inp.append(b"a", b"x" * 500)
        inp.append(b"b", b"y")
        b = DistributedBackend(workers=2, split_bytes=64)
        assert b._split_slices(inp) == [(0, 1), (1, 2)]

    def test_empty_input(self):
        b = DistributedBackend(workers=2)
        assert b._split_slices(KeyValueSet()) == [(0, 0)]


class TestExecutionPlumbing:
    kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                  config=CFG, threads_per_block=64)

    def test_matches_fast_and_reports_telemetry(self):
        spec, inp = _count_spec(), _words()
        fast = run_job(spec, inp, backend="fast", **self.kwargs)
        b = DistributedBackend(workers=2, min_records=0, split_bytes=512)
        dist = run_job(spec, inp, backend=b, **self.kwargs)
        assert dist.output == fast.output
        assert dist.worker_profiles, "dist run must ship shard profiles"
        phases = {p.phase for p in dist.worker_profiles}
        assert phases == {"map", "reduce"}
        assert dist.straggler is not None
        assert dist.map_stats.extra["dist_tasks"] >= 2
        assert dist.reduce_stats.extra["dist_tasks"] >= 1
        assert b.last_counters["map_tasks"] >= 2

    def test_min_records_fallback_runs_in_process(self):
        spec, inp = _count_spec(), _words(20)
        fast = run_job(spec, inp, backend="fast", **self.kwargs)
        b = DistributedBackend(workers=2)  # default min_records = 2048
        dist = run_job(spec, inp, backend=b, **self.kwargs)
        assert dist.output == fast.output
        assert b.last_counters == {}  # no cluster was ever started
        assert dist.map_stats.extra.get("dist_tasks") is None

    def test_ledger_records_dist(self, tmp_path, monkeypatch):
        from repro.obs.ledger import LEDGER_NAME, read_ledger

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        b = DistributedBackend(workers=2, min_records=0)
        run_job(_count_spec(), _words(), backend=b, **self.kwargs)
        recs = read_ledger(str(tmp_path / "ledger" / LEDGER_NAME))
        assert recs and recs[-1]["backend"] == "dist"
        assert recs[-1]["workers"] == 2


class TestCloseReapsEverything:
    """Satellite fix: ``backend.close()`` must reap worker processes
    and sockets on *every* exit path, including a raising kernel."""

    kwargs = dict(mode=MemoryMode.SIO, strategy=None, config=CFG,
                  threads_per_block=64)

    @staticmethod
    def _fd_count():
        return len(os.listdir("/proc/self/fd"))

    def test_raising_kernel_leaves_no_orphans_or_fds(self):
        def boom(key, value, emit, const):
            raise ValueError("scripted kernel failure")

        spec = MapReduceSpec(name="boom", map_record=boom)
        inp = _words()
        fd_before = self._fd_count()
        b = DistributedBackend(workers=2, min_records=0)
        with pytest.raises(FrameworkError, match="scripted kernel"):
            run_job(spec, inp, backend=b, **self.kwargs)
        # Every worker process reaped (active_children() also joins).
        assert multiprocessing.active_children() == []
        # Every socket and pipe released.
        assert self._fd_count() <= fd_before

    def test_clean_run_leaves_no_orphans_or_fds(self):
        fd_before = self._fd_count()
        b = DistributedBackend(workers=2, min_records=0)
        run_job(_ident_spec(), _words(), backend=b, **self.kwargs)
        assert multiprocessing.active_children() == []
        assert self._fd_count() <= fd_before

    def test_worker_death_still_reaps(self):
        fd_before = self._fd_count()
        b = DistributedBackend(workers=2, min_records=0,
                               fault_plan=FaultPlan.kill(0, 10))
        run_job(_ident_spec(), _words(), backend=b, **self.kwargs)
        assert multiprocessing.active_children() == []
        assert self._fd_count() <= fd_before
        assert b.last_counters["worker_deaths"] == 1


# ----------------------------------------------------------------------
# Output identity with the fast backend
# ----------------------------------------------------------------------


class TestFastParity:
    @pytest.mark.parametrize("strategy", [ReduceStrategy.TR,
                                          ReduceStrategy.BR, None])
    def test_sharded_output_identical(self, strategy):
        spec, inp = _wc()
        kwargs = dict(mode=MemoryMode.SIO, strategy=strategy, config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=_sharded(3), **kwargs)
        assert dist.output == fast.output  # identical records, same order
        assert dist.intermediate_count == fast.intermediate_count
        assert dist.mode == fast.mode
        assert dist.strategy == fast.strategy

    def test_fallback_output_identical(self):
        """Tiny inputs never start a cluster but produce the same records."""
        spec, inp = _wc()
        backend = DistributedBackend(workers=4, min_records=10 ** 9)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=backend, **kwargs)
        assert dist.output == fast.output

    def test_single_worker_identical(self):
        spec, inp = _wc()
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=_sharded(1), **kwargs)
        assert dist.output == fast.output

    def test_transfer_costs_match_fast(self):
        spec, inp = _wc()
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=_sharded(2), **kwargs)
        assert dist.timings.io_in == fast.timings.io_in
        assert dist.timings.io_out == fast.timings.io_out
        assert dist.timings.map == 0.0 and dist.timings.reduce == 0.0

    def test_sharding_counters_reported(self):
        # ~104 KB of input: two 64 KiB map splits; R = 2 workers x 2.
        spec, inp = _wc(scale=1.0)
        dist = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR, config=CFG,
                       backend=_sharded(2), store="memory")
        assert dist.map_stats.extra["dist_tasks"] == 2
        assert dist.map_stats.extra["dist_workers"] == 2
        assert dist.reduce_stats.extra["dist_tasks"] == 4

    def test_auto_mode(self):
        spec, inp = _wc()
        dist = run_job(spec, inp, mode="auto", strategy=ReduceStrategy.TR,
                       config=CFG, backend=_sharded(2))
        fast = run_job(spec, inp, mode="auto", strategy=ReduceStrategy.TR,
                       config=CFG, backend="fast")
        # Both resolve 'auto' with the same cost-model tuner, so the
        # chosen mode matches and the output is backend-independent.
        assert isinstance(dist.mode, MemoryMode)
        assert dist.mode == fast.mode
        assert dist.output == fast.output


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


class TestBRFolds:
    def test_fold_preserves_counts(self):
        spec = _mean_spec()
        inp = KeyValueSet()
        for i in range(300):
            inp.append(struct.pack("<I", i % 7), struct.pack("<Q", i))
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp,
                       backend=DistributedBackend(workers=4, min_records=0,
                                                  split_bytes=512),
                       **kwargs)
        assert dist.output == fast.output
        assert len(dist.output) == 7

    def test_float_br_seeded_spec_identical(self):
        """KMeans built from ``spec_for_seed`` (not the sized spec):
        the BR fold still matches the fast backend bit for bit."""
        k = KMeans()
        inp = k.generate("small", seed=3, scale=0.25)
        spec = k.spec_for_seed(3)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=_sharded(3), **kwargs)
        assert dist.output == fast.output

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("workload", [KMeans, LinearRegression],
                             ids=["KM", "LR"])
    def test_float_br_byte_identical(self, workload, workers):
        """Workers fold each BR group in full, in emission order, so
        float accumulators match the fast backend bit for bit; any
        regrouping of a fold across shards would change them."""
        w = workload()
        inp = w.generate("small", seed=3, scale=0.5)
        spec = w.spec_for_size("small", seed=3, scale=0.5)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR,
                      config=CFG)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=_sharded(workers), **kwargs)
        assert dist.output == fast.output


# ----------------------------------------------------------------------
# Degenerate inputs (the fuzzer's corners)
# ----------------------------------------------------------------------


class TestDegenerate:
    kwargs = dict(mode=MemoryMode.SIO, config=CFG)

    @staticmethod
    def _ident(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    def test_empty_input(self):
        spec = MapReduceSpec(name="degen", map_record=self._ident)
        res = run_job(spec, KeyValueSet(), backend=_sharded(4),
                      **self.kwargs)
        assert len(res.output) == 0

    def test_empty_input_with_reduce(self):
        def count(key, values, emit, const):
            emit(key.to_bytes(), struct.pack("<I", len(values)))

        spec = MapReduceSpec(name="degen", map_record=self._ident,
                             reduce_record=count)
        res = run_job(spec, KeyValueSet(), strategy=ReduceStrategy.TR,
                      backend=_sharded(4), **self.kwargs)
        assert len(res.output) == 0

    def test_single_hot_key(self):
        """Every record lands in one group: the reduce range partition
        degenerates to a single non-empty range."""

        def total(key, values, emit, const):
            s = sum(int.from_bytes(v.to_bytes(), "little") for v in values)
            emit(key.to_bytes(), struct.pack("<I", s & 0xFFFFFFFF))

        inp = KeyValueSet()
        for i in range(64):
            inp.append(b"only", struct.pack("<I", i))
        spec = MapReduceSpec(name="degen", map_record=self._ident,
                             reduce_record=total)
        fast = run_job(spec, inp, strategy=ReduceStrategy.TR,
                       backend="fast", **self.kwargs)
        dist = run_job(spec, inp, strategy=ReduceStrategy.TR,
                       backend=_sharded(4), **self.kwargs)
        assert dist.output == fast.output
        assert len(dist.output) == 1

    def test_zero_output_map(self):
        def swallow(key, value, emit, const):
            pass

        inp = KeyValueSet()
        for i in range(40):
            inp.append(struct.pack("<I", i), b"x")
        spec = MapReduceSpec(name="degen", map_record=swallow)
        res = run_job(spec, inp, backend=_sharded(4), **self.kwargs)
        assert len(res.output) == 0

    def test_fewer_records_than_workers(self):
        inp = KeyValueSet([(b"a", b"1"), (b"b", b"2")])
        spec = MapReduceSpec(name="degen", map_record=self._ident)
        res = run_job(spec, inp, backend=_sharded(8), **self.kwargs)
        assert list(res.output) == [(b"a", b"1"), (b"b", b"2")]

    def test_bad_emit_type_surfaces(self):
        def bad(key, value, emit, const):
            emit("not-bytes", b"v")

        inp = KeyValueSet([(b"k", b"v")] * 8)
        spec = MapReduceSpec(name="degen", map_record=bad)
        with pytest.raises(FrameworkError):
            run_job(spec, inp, backend=_sharded(2), **self.kwargs)


# ----------------------------------------------------------------------
# Streamed and Mars drivers
# ----------------------------------------------------------------------


class TestOtherDrivers:
    @pytest.mark.parametrize("strategy", [ReduceStrategy.TR,
                                          ReduceStrategy.BR])
    def test_streamed_identical_to_fast(self, strategy):
        spec, inp = _wc(scale=0.3)
        kwargs = dict(strategy=strategy, n_batches=3, config=CFG)
        fast = run_streamed_job(spec, inp, backend="fast", **kwargs)
        dist = run_streamed_job(spec, inp, backend=_sharded(2), **kwargs)
        assert dist.job.output == fast.job.output
        assert len(dist.batches) == len(fast.batches)
        for bf, bd in zip(fast.batches, dist.batches):
            assert bf.records == bd.records
            assert bf.upload_cycles == bd.upload_cycles

    def test_mars_identical_to_fast(self):
        from repro.mars.framework import run_mars_job

        spec, inp = _wc()
        fast = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                            config=CFG, backend="fast")
        dist = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                            config=CFG, backend=_sharded(2))
        assert dist.output == fast.output
        assert dist.mode == fast.mode == "Mars"


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    @staticmethod
    def _spy_contexts(backend) -> list:
        seen = []
        orig_open = backend.open

        def spy_open(plan):
            seen.append(orig_open(plan))
            return seen[-1]

        backend.open = spy_open
        return seen

    def test_cluster_released_after_job(self):
        spec, inp = _wc()
        backend = _sharded(2)
        seen = self._spy_contexts(backend)
        run_job(spec, inp, mode=MemoryMode.SIO, strategy=ReduceStrategy.TR,
                config=CFG, backend=backend)
        assert seen[0].cluster is None

    def test_cluster_released_on_error(self):
        def boom(key, value, emit, const):
            raise RuntimeError("kernel panic")

        spec = MapReduceSpec(name="boom", map_record=boom)
        inp = KeyValueSet([(b"k", b"v")] * 32)
        backend = _sharded(2)
        seen = self._spy_contexts(backend)
        with pytest.raises(FrameworkError, match="kernel panic"):
            run_job(spec, inp, mode=MemoryMode.SIO, config=CFG,
                    backend=backend)
        assert seen[0].cluster is None

    def test_backend_reusable_across_jobs(self):
        spec, inp = _wc()
        backend = _sharded(2)
        fast = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR, config=CFG,
                       backend="fast")
        for _ in range(2):
            res = run_job(spec, inp, mode=MemoryMode.SIO,
                          strategy=ReduceStrategy.TR, config=CFG,
                          backend=backend)
            assert res.output == fast.output
            assert backend.last_counters["map_tasks"] == 1


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


# ----------------------------------------------------------------------
# Slow tier: medium inputs above the default in-process threshold
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def wc_medium():
    w = WordCount()
    return (w.spec_for_size("medium", seed=0), w.generate("medium", seed=0))


@pytest.mark.slow
class TestMediumInputs:
    """The sizes the backend exists for: inputs far above
    ``DEFAULT_MIN_RECORDS``, so the plain constructor starts a cluster,
    across worker counts."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep_identical(self, wc_medium, workers):
        spec, inp = wc_medium
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=DistributedBackend(workers=workers),
                       **kwargs)
        assert dist.output == fast.output
        assert dist.intermediate_count == fast.intermediate_count

    def test_br_identical(self, wc_medium):
        spec, inp = wc_medium
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=DistributedBackend(workers=4),
                       **kwargs)
        assert dist.output == fast.output

    def test_default_threshold_engages_cluster(self, wc_medium):
        """Medium wordcount is far above DEFAULT_MIN_RECORDS, so a
        plain DistributedBackend(workers=2) must actually shard:
        ~208 KB of input is four 64 KiB map splits."""
        spec, inp = wc_medium
        dist = run_job(spec, inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR,
                       backend=DistributedBackend(workers=2))
        assert dist.map_stats.extra["dist_tasks"] == 4

    def test_streamed_medium(self, wc_medium):
        spec, inp = wc_medium
        kwargs = dict(strategy=ReduceStrategy.TR, n_batches=4)
        fast = run_streamed_job(spec, inp, backend="fast", **kwargs)
        dist = run_streamed_job(spec, inp,
                                backend=DistributedBackend(workers=2),
                                **kwargs)
        assert dist.job.output == fast.job.output

    def test_kmeans_br_float_byte_identical(self):
        k = KMeans()
        inp = k.generate("medium", seed=0)
        spec = k.spec_for_size("medium", seed=0)
        kwargs = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.BR)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        dist = run_job(spec, inp, backend=DistributedBackend(workers=4),
                       **kwargs)
        assert dist.output == fast.output
