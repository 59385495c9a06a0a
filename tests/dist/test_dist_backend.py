"""DistributedBackend plumbing: registry, env wiring, split sizing,
FaultPlan units, telemetry, and the close()-reaps-everything contract."""

import multiprocessing
import os

import pytest

from repro.backend import BACKENDS, DistributedBackend, get_backend
from repro.backend.sharded import DEFAULT_SPLIT_BYTES, resolve_split_bytes
from repro.dist import FaultPlan, WorkerFault
from repro.errors import FrameworkError
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.records import KeyValueSet
from repro.gpu import DeviceConfig

CFG = DeviceConfig.small(2)


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
