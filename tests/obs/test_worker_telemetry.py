"""Cross-process worker telemetry: shard profiles, merge, stragglers.

Covers the satellite checklist: every sharded phase yields one track
per shard in the Chrome export, worker ids are stable across runs,
the straggler summary computes the documented max-vs-median skew on a
hand-built fixture, and ``JobResult`` carries both the raw profiles
and the summary.
"""

import json

from repro.backend import DistributedBackend
from repro.framework import MemoryMode, ReduceStrategy
from repro.framework.job import run_job
from repro.gpu import DeviceConfig
from repro.obs import Tracer, to_chrome_trace, write_jsonl
from repro.obs.exporters import WORKER_PID
from repro.obs.telemetry import (
    PhaseImbalance,
    ShardProfile,
    summarize_workers,
)
from repro.workloads import WordCount

WORKERS = 2
#: Tasks per phase: WordCount small is ~104 KB of input, two 64 KiB
#: map splits; Reduce cuts R = workers x 2 key ranges.
TASKS = {"map": 2, "reduce": 2 * WORKERS}
#: One worker track per shard index.
TRACKS = max(TASKS.values())


def _parallel_run(tracer=None):
    wc = WordCount()
    inp = wc.generate("small", seed=0)
    backend = DistributedBackend(workers=WORKERS, min_records=0)
    # Pin the memory store: these tests assert its reduce sharding
    # shape (two contiguous key ranges per worker), which the spill
    # store's chunk-streamed reduce legitimately changes — and the
    # suite also runs under REPRO_STORE=spill.
    res = run_job(wc.spec(), inp, mode=MemoryMode.SIO,
                  strategy=ReduceStrategy.TR,
                  config=DeviceConfig.small(1), tracer=tracer,
                  backend=backend, store="memory")
    return res


def _profile(phase, shard, start, end, **kw):
    defaults = dict(pid=1000 + shard, records_in=10, records_out=10)
    defaults.update(kw)
    return ShardProfile(phase=phase, shard=shard, start_ns=start,
                        end_ns=end, **defaults)


class TestSummarizeWorkers:
    def test_empty_is_none(self):
        assert summarize_workers([]) is None

    def test_skew_on_hand_built_fixture(self):
        """Three map shards: 10ms, 10ms, 30ms -> median 10ms, skew 3."""
        ms = 1_000_000
        profiles = [
            _profile("map", 0, 0, 10 * ms),
            _profile("map", 1, 0, 10 * ms),
            _profile("map", 2, 0, 30 * ms),
        ]
        summary = summarize_workers(profiles)
        ph = summary.phase("map")
        assert isinstance(ph, PhaseImbalance)
        assert ph.shards == 3
        assert ph.max_ns == 30 * ms
        assert ph.median_ns == 10 * ms
        assert ph.slowest_shard == 2
        assert ph.skew == 3.0
        assert summary.max_skew == 3.0

    def test_phases_summarised_independently(self):
        profiles = [
            _profile("map", 0, 0, 100),
            _profile("map", 1, 0, 100),
            _profile("reduce", 0, 0, 10),
            _profile("reduce", 1, 0, 10),
            _profile("reduce", 2, 0, 40),
        ]
        summary = summarize_workers(profiles)
        assert summary.phase("map").skew == 1.0
        assert summary.phase("reduce").skew == 4.0

    def test_render_flags_straggler(self):
        ms = 1_000_000
        summary = summarize_workers([
            _profile("map", 0, 0, 10 * ms),
            _profile("map", 1, 0, 10 * ms),
            _profile("map", 2, 0, 30 * ms),
        ])
        text = summary.render()
        assert "straggler" in text
        assert "map" in text

    def test_balanced_render_has_no_straggler_flag(self):
        summary = summarize_workers([
            _profile("map", 0, 0, 100),
            _profile("map", 1, 0, 100),
        ])
        assert "straggler" not in summary.render()


class TestParallelRunTelemetry:
    def test_job_result_carries_profiles_and_summary(self):
        res = _parallel_run()
        assert res.worker_profiles
        phases = {p.phase for p in res.worker_profiles}
        assert phases == {"map", "reduce"}
        for phase in phases:
            shards = sorted(p.shard for p in res.worker_profiles
                            if p.phase == phase)
            assert shards == list(range(TASKS[phase]))
        assert res.straggler is not None
        assert res.straggler.max_skew >= 1.0

    def test_profiles_count_records(self):
        res = _parallel_run()
        map_in = sum(p.records_in for p in res.worker_profiles
                     if p.phase == "map")
        wc = WordCount()
        assert map_in == len(wc.generate("small", seed=0))

    def test_worker_ids_stable_across_runs(self):
        a = _parallel_run()
        b = _parallel_run()
        key = lambda r: sorted((p.phase, p.shard, p.records_in)
                               for p in r.worker_profiles)
        assert key(a) == key(b)

    def test_chrome_trace_has_one_track_per_worker(self):
        tr = Tracer(wall_clock=True, kernel_detail=False)
        _parallel_run(tracer=tr)
        doc = to_chrome_trace(tr)
        meta = {e["tid"]: e["args"]["name"]
                for e in doc["traceEvents"]
                if e["ph"] == "M" and e["pid"] == WORKER_PID
                and e["name"] == "thread_name"}
        assert meta == {w + 1: f"worker {w}" for w in range(TRACKS)}
        lanes = {e["tid"] for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == WORKER_PID}
        assert lanes == set(range(1, TRACKS + 1))
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X" and ev["pid"] == WORKER_PID:
                assert ev["dur"] >= 0
                assert ev["args"]["worker"] == ev["tid"] - 1

    def test_jsonl_has_worker_records(self, tmp_path):
        tr = Tracer(wall_clock=True, kernel_detail=False)
        _parallel_run(tracer=tr)
        path = tmp_path / "ev.jsonl"
        write_jsonl(tr, str(path))
        workers = [json.loads(line)
                   for line in path.read_text().splitlines()
                   if json.loads(line)["type"] == "worker"]
        assert {r["worker"] for r in workers} == set(range(TRACKS))
        for r in workers:
            assert r["wall_end_ns"] >= r["wall_start_ns"]

    def test_sim_tracer_untouched_by_telemetry_types(self):
        """A sim-backend trace has no worker events at all."""
        tr = Tracer(kernel_detail=False)
        wc = WordCount()
        inp = wc.generate("small", seed=0)
        run_job(wc.spec(), inp, mode=MemoryMode.SIO,
                strategy=ReduceStrategy.TR,
                config=DeviceConfig.small(1), tracer=tr)
        assert tr.worker_events == []
