"""Metrics registry, KernelStats absorption, serialisation, diffing."""

from dataclasses import fields

import pytest

from repro.framework import MemoryMode, ReduceStrategy
from repro.framework.job import run_job
from repro.gpu import DeviceConfig
from repro.gpu.stats import KernelStats
from repro.obs import (
    MetricsRegistry,
    diff_metrics,
    flatten_metrics,
    job_metrics_registry,
)
from repro.workloads import WordCount


class TestPrimitives:
    def test_counter_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(7)
        reg.gauge("g").set(9)
        d = reg.as_dict()
        assert d["counters"]["c"] == 5
        assert d["gauges"]["g"] == 9.0

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (2.0, 4.0, 9.0):
            h.observe(v)
        assert h.summary() == {
            "count": 3, "max": 9.0, "mean": 5.0, "min": 2.0,
            "p50": 4.0, "p90": 9.0, "p99": 9.0, "total": 15.0}

    def test_empty_histogram_summary_is_zeroed(self):
        h = MetricsRegistry().histogram("h")
        assert h.summary() == {
            "count": 0, "max": 0.0, "mean": 0.0, "min": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "total": 0.0}

    def test_histogram_percentiles(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 51.0
        assert h.percentile(90) == 90.0
        assert h.percentile(100) == 100.0

    def test_histogram_reservoir_stays_bounded_and_deterministic(self):
        from repro.obs.metrics import _RESERVOIR_CAP

        h1 = MetricsRegistry().histogram("h")
        h2 = MetricsRegistry().histogram("h")
        for v in range(10 * _RESERVOIR_CAP):
            h1.observe(float(v))
            h2.observe(float(v))
        assert len(h1._samples) <= _RESERVOIR_CAP
        assert h1._samples == h2._samples
        assert h1.count == 10 * _RESERVOIR_CAP
        # Percentiles stay close to exact despite decimation.
        assert abs(h1.percentile(50) - 5 * _RESERVOIR_CAP) < _RESERVOIR_CAP * 0.2


class TestAbsorbKernelStats:
    def test_every_numeric_field_lands(self):
        st = KernelStats(cycles=100.0, instructions=7, polls=3)
        st.count("flushes", 2)
        st.stall("atomic", 12.0)
        reg = MetricsRegistry()
        reg.absorb_kernel_stats(st, "kernel.map")
        counters = reg.as_dict()["counters"]
        for f in fields(st):
            if isinstance(getattr(st, f.name), dict):
                continue
            if f.name.startswith("analysis_cache_"):
                # Process state (how warm the cache is), not the job's:
                # kept off the registry so metrics.json is byte-stable.
                assert f"kernel.map.{f.name}" not in counters, f.name
                continue
            assert f"kernel.map.{f.name}" in counters, f.name
        assert counters["kernel.map.cycles"] == 100.0
        assert counters["kernel.map.extra.flushes"] == 2
        assert counters["kernel.map.stall_cycles.atomic"] == 12.0

    def test_absorb_accumulates(self):
        reg = MetricsRegistry()
        reg.absorb_kernel_stats(KernelStats(cycles=10.0), "k")
        reg.absorb_kernel_stats(KernelStats(cycles=5.0), "k")
        assert reg.as_dict()["counters"]["k.cycles"] == 15.0


class TestJobRegistry:
    @pytest.fixture(scope="class")
    def result(self):
        # backend pinned: derived gauges (bandwidth utilisation,
        # occupancy, stall fractions) come from sim kernel counters.
        wc = WordCount()
        inp = wc.generate("small", seed=0)
        return run_job(wc.spec(), inp, mode=MemoryMode.SIO,
                       strategy=ReduceStrategy.TR,
                       config=DeviceConfig.small(1), backend="sim")

    def test_expected_namespaces(self, result):
        reg = job_metrics_registry(result, DeviceConfig.small(1))
        flat = flatten_metrics(reg.as_dict())
        assert flat["gauges.job.total_cycles"] == result.total_cycles
        for phase in ("io_in", "map", "shuffle", "reduce", "io_out"):
            assert f"gauges.phase.{phase}" in flat
        assert flat["counters.job.output_records"] == len(result.output)
        assert "counters.kernel.map.cycles" in flat
        assert "counters.kernel.reduce.cycles" in flat
        assert "gauges.derived.map.bandwidth_utilisation" in flat
        assert "gauges.derived.reduce.occupancy" in flat
        assert any(k.startswith("gauges.derived.map.stall_fraction.")
                   for k in flat)

    def test_to_json_is_deterministic(self, result):
        cfg = DeviceConfig.small(1)
        a = job_metrics_registry(result, cfg).to_json(extra={"seed": 0})
        b = job_metrics_registry(result, cfg).to_json(extra={"seed": 0})
        assert a == b
        assert a.endswith("\n")

    def test_map_only_job_has_no_reduce_metrics(self):
        wc = WordCount()
        inp = wc.generate("small", seed=0)
        res = run_job(wc.spec(), inp, mode=MemoryMode.SIO, strategy=None,
                      config=DeviceConfig.small(1))
        flat = flatten_metrics(
            job_metrics_registry(res, DeviceConfig.small(1)).as_dict())
        assert "counters.kernel.map.cycles" in flat
        assert not any(".reduce." in k for k in flat)


class TestDiff:
    BASE = {"counters": {"a": 10.0, "gone": 1.0}, "gauges": {"g": 2.0},
            "histograms": {"h": {"count": 1, "total": 5.0}}}

    def test_flatten(self):
        flat = flatten_metrics(self.BASE)
        assert flat["counters.a"] == 10.0
        assert flat["histograms.h.total"] == 5.0

    def test_identical_documents_diff_clean(self):
        assert diff_metrics(self.BASE, self.BASE) == []

    def test_changes_additions_removals(self):
        cur = {"counters": {"a": 11.0, "new": 3.0}, "gauges": {"g": 2.0},
               "histograms": {"h": {"count": 1, "total": 5.0}}}
        deltas = diff_metrics(self.BASE, cur)
        by_name = {d.name: d for d in deltas}
        assert set(by_name) == {"counters.a", "counters.new",
                                "counters.gone"}
        assert by_name["counters.a"].ratio == pytest.approx(1.1)
        assert by_name["counters.new"].baseline is None
        assert by_name["counters.gone"].current is None
        assert "(+10.0%)" in by_name["counters.a"].render()

    def test_tolerance_suppresses_small_changes(self):
        cur = {"counters": {"a": 10.4, "gone": 1.0}, "gauges": {"g": 2.0},
               "histograms": {"h": {"count": 1, "total": 5.0}}}
        assert diff_metrics(self.BASE, cur, rel_tol=0.05) == []
        assert len(diff_metrics(self.BASE, cur, rel_tol=0.01)) == 1
