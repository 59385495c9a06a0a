"""Fault-injection matrix: every scripted failure mode must leave the
distributed backend's output byte-identical to the fast backend, with
exactly-once shard accounting.

The exactly-once proof reads the coordinator's event log: every shard
of every phase has exactly one accepted ``complete`` event, whatever
kills, drops, retries and speculative duplicates happened around it —
late twins surface as ``duplicate`` events and are never merged.  The
straggler case doubles as the duplicate-completion fixture: the
scripted delay forces a speculative re-execution, so the same shard
really does finish twice and the dedupe path is exercised for real,
not hypothetically.
"""

from collections import Counter

import pytest

from repro.backend import DistributedBackend
from repro.dist import FaultPlan
from repro.errors import FrameworkError
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.gpu import DeviceConfig
from repro.workloads import ALL_WORKLOADS

CFG = DeviceConfig.small(2)

#: Small but non-trivial input: enough records that kill thresholds
#: fire mid-phase and the map has real task granularity.
_WC = [cls for cls in ALL_WORKLOADS if cls().code == "WC"][0]()
INP = _WC.generate("small", seed=11, scale=0.3)
SPEC = _WC.spec_for_size("small", seed=11, scale=0.3)

KWARGS = dict(mode=MemoryMode.SIO, strategy=ReduceStrategy.TR, config=CFG,
              threads_per_block=64)

FAST = run_job(SPEC, INP, backend="fast", **KWARGS)


def _ident_spec():
    from repro.framework.api import MapReduceSpec

    def ident(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    return MapReduceSpec(name="ident", map_record=ident)


def _run_dist(plan, *, split_bytes=512, deterministic=False,
              min_straggle_s=None, **extra):
    backend = DistributedBackend(
        workers=2, min_records=0, split_bytes=split_bytes,
        fault_plan=plan, deterministic=deterministic,
        min_straggle_s=min_straggle_s,
    )
    result = run_job(SPEC, INP, backend=backend, **dict(KWARGS, **extra))
    return backend, result


def _assert_exactly_once(events):
    """Each (phase, shard) pair has exactly one accepted completion."""
    completes = Counter(
        (e.phase, e.shard) for e in events if e.kind == "complete"
    )
    assert completes, "no completions recorded"
    over = {k: n for k, n in completes.items() if n != 1}
    assert not over, f"shards completed != once: {over}"
    # Everything ever assigned was eventually completed.
    assigned = {(e.phase, e.shard) for e in events if e.kind == "assign"}
    assert {k for k in assigned} == set(completes)


KILL_MATRIX = [
    pytest.param(FaultPlan.kill(0, 30), id="kill-w0"),
    pytest.param(FaultPlan.kill(1, 30), id="kill-w1"),
    pytest.param(FaultPlan.kill(1, 80, phase="map"), id="kill-w1-map"),
    pytest.param(FaultPlan.kill(0, 400, phase="reduce"),
                 id="kill-w0-reduce"),
    pytest.param(FaultPlan.drop(0, 25), id="drop-w0"),
    pytest.param(FaultPlan.drop(1, 60), id="drop-w1"),
    pytest.param(FaultPlan.kill(0, 20) + FaultPlan.kill(1, 40),
                 id="kill-both-respawn"),
    pytest.param(FaultPlan.kill(0, 15) + FaultPlan.drop(1, 90),
                 id="kill-and-drop"),
]


@pytest.mark.parametrize("plan", KILL_MATRIX)
def test_worker_death_byte_identical(plan):
    backend, result = _run_dist(plan)
    assert result.output == FAST.output
    assert result.intermediate_count == FAST.intermediate_count
    _assert_exactly_once(backend.last_events)
    c = backend.last_counters
    assert c["worker_deaths"] >= 1
    assert c["retries"] >= 1


def test_double_death_respawns():
    """Killing every worker forces a respawned replacement with a
    fresh index (fresh fault state), and the job still finishes."""
    backend, result = _run_dist(FaultPlan.kill(0, 10) + FaultPlan.kill(1, 10))
    assert result.output == FAST.output
    assert backend.last_counters["respawns"] >= 1
    assert backend.last_counters["worker_deaths"] >= 2
    respawned = [e for e in backend.last_events if e.kind == "respawn"]
    # Replacement indices start past the original worker range.
    assert all(e.worker >= 2 for e in respawned)
    _assert_exactly_once(backend.last_events)


def test_straggler_speculation_and_duplicate_dedupe():
    """The duplicate-completion fixture: a scripted delay makes shard 3
    a straggler; the coordinator speculates a duplicate, both attempts
    eventually reply, exactly one wins."""
    # deterministic=True pins shard 3 (attempt 0) to worker 1.
    plan = FaultPlan.delay(1, 1.0, shard=3, phase="map")
    backend, result = _run_dist(plan, split_bytes=4096,
                                deterministic=True, min_straggle_s=0.15)
    assert result.output == FAST.output
    c = backend.last_counters
    assert c["speculated"] >= 1, "delay never triggered speculation"
    assert c["duplicates"] >= 1, "the losing attempt never completed"
    assert c["worker_deaths"] == 0
    _assert_exactly_once(backend.last_events)
    spec_events = [e for e in backend.last_events if e.kind == "speculate"]
    assert spec_events[0].shard == 3
    dup_events = [e for e in backend.last_events if e.kind == "duplicate"]
    assert any(e.shard == 3 for e in dup_events)


def test_kill_under_spill_store():
    """A killed attempt leaves partial run files; the retry's runs are
    attempt-prefixed, so the merge never sees the corpse's output."""
    backend, result = _run_dist(FaultPlan.kill(1, 60), store="spill",
                                memory_budget=512,
                                strategy=ReduceStrategy.BR)
    fast_spill = run_job(SPEC, INP, backend="fast", store="spill",
                         memory_budget=512,
                         **dict(KWARGS, strategy=ReduceStrategy.BR))
    assert result.output == fast_spill.output
    assert backend.last_counters["worker_deaths"] >= 1
    assert result.reduce_stats.extra.get("spill_runs", 0) > 0
    _assert_exactly_once(backend.last_events)


def test_delay_without_speculation_room_still_correct():
    """A straggler with no idle worker to speculate on just finishes
    late — slower, never wrong."""
    plan = FaultPlan.delay(0, 0.4, phase="reduce")
    backend, result = _run_dist(plan, min_straggle_s=10.0)
    assert result.output == FAST.output
    assert backend.last_counters["speculated"] == 0
    _assert_exactly_once(backend.last_events)


def test_fault_on_unused_worker_is_harmless():
    """A plan scripted for a worker index that never exists (dist:2,
    fault on worker 7) must not perturb the run."""
    backend, result = _run_dist(FaultPlan.kill(7, 1))
    assert result.output == FAST.output
    assert backend.last_counters["worker_deaths"] == 0


def test_seeded_chaos_plans_byte_identical():
    """A slice of the chaos-fuzz ingredient inline: seeded one-kill
    plans across several seeds, each byte-identical to fast."""
    for seed in range(6):
        backend, result = _run_dist(FaultPlan.seeded(seed, workers=2,
                                                     max_records=64))
        assert result.output == FAST.output, f"seed {seed} diverged"
        _assert_exactly_once(backend.last_events)


def test_stale_reply_from_prior_phase_is_dropped():
    """A speculation loser can still be executing when ``run_phase``
    returns.  In a streamed job the next batch's map phase has the
    same name and renumbers shards from 0 — only the epoch fence keeps
    the loser's late reply (old payload!) from being accepted as the
    new phase's shard result."""
    from repro.dist.coordinator import Cluster

    # deterministic placement: shard 0 attempt 0 -> worker 0, which is
    # scripted to sit on every map reply for 0.6s.
    cluster = Cluster(2, FaultPlan.delay(0, 0.6, phase="map"),
                      deterministic=True, min_straggle_s=0.1)
    cluster.start(_ident_spec(), None, False)
    try:
        r1 = cluster.run_phase("map", [(0, {"pairs": [[b"k1", b"v1"]]})])
        # The backup copy on worker 1 won; worker 0 is still sleeping
        # on the phase-1 task when the next phase starts.
        assert cluster.counters["speculated"] == 1
        r2 = cluster.run_phase("map", [(0, {"pairs": [[b"k2", b"v2"]]})])
    finally:
        cluster.shutdown()
    # Each phase accepted exactly its own shard 0, and phase 2's holds
    # phase 2's payload, not the stale one.
    assert set(r1) == {0} and set(r2) == {0}
    assert [tuple(p) for p in r1[0]["pairs"]] == [(b"k1", b"v1")]
    assert [tuple(p) for p in r2[0]["pairs"]] == [(b"k2", b"v2")]
    # The phase-1 loser's late reply surfaced as a duplicate, never
    # merged into phase 2.
    assert cluster.counters["duplicates"] >= 1
    dup = [e for e in cluster.events if e.kind == "duplicate"]
    assert dup, "the stale reply was never seen as a duplicate"


def test_speculation_respects_max_attempts():
    """The backup copy runs as attempt+1, so with the ceiling at 1 a
    straggler must never be speculated — it just finishes late."""
    from repro.dist.coordinator import Cluster

    cluster = Cluster(2, FaultPlan.delay(0, 0.4, phase="map"),
                      deterministic=True, min_straggle_s=0.05,
                      max_attempts=1)
    cluster.start(_ident_spec(), None, False)
    try:
        r = cluster.run_phase("map", [(0, {"pairs": [[b"k", b"v"]]})])
    finally:
        cluster.shutdown()
    assert [tuple(p) for p in r[0]["pairs"]] == [(b"k", b"v")]
    assert cluster.counters["speculated"] == 0


def test_twin_attempt_spill_runs_never_collide(tmp_path):
    """A speculated copy and a death-requeued retry can share
    (shard, attempt); the coordinator's per-dispatch seq token keeps
    their spill run files apart, so the loser's writes can never
    corrupt the accepted attempt's runs."""
    from repro.dist.tasks import configure, run_map

    configure(SPEC, None, False)
    base = {"shard": 0, "attempt": 1, "epoch": 1,
            "pairs": [[k, v] for k, v in zip(INP.keys, INP.values)],
            "spill": [str(tmp_path), 64]}
    r1 = run_map(dict(base, seq=7))
    r2 = run_map(dict(base, seq=8))
    runs1, runs2 = set(r1["spilled"]["runs"]), set(r2["spilled"]["runs"])
    assert runs1 and runs2, "the tiny budget should have forced runs"
    assert not runs1 & runs2, "twin attempts shared spill file names"


def test_shard_exhausting_attempts_fails_loudly():
    """A shard that dies on every worker (phase-wide kill threshold of
    1 record on both workers, and on every respawn... impossible to
    finish only if the plan covers respawns too — so instead prove the
    max-attempts guard directly with a cluster-level unit)."""
    from collections import deque

    from repro.dist.coordinator import Cluster, _Task

    cluster = Cluster(2, max_attempts=2)
    cluster._started = True  # bypass start(): no processes needed
    task = _Task("map", 0, 1, {})

    class _P:
        def join(self, timeout=None):
            return None

    class _H:
        idx = 0
        alive = True
        sock = None
        proc = _P()
        task = None

    h = _H()
    h.task = task
    cluster._handles[0] = h

    # The retry would be attempt 2 >= max_attempts -> FrameworkError.
    with pytest.raises(FrameworkError, match="giving up"):
        cluster._on_worker_death(h, "map", deque(), {})
