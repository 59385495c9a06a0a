"""Metrics registry: counters, gauges, histograms — and perf diffing.

The registry subsumes the free-form ``KernelStats.extra`` dict: every
numeric :class:`~repro.gpu.stats.KernelStats` field, extra counter and
stall category is absorbed under a stable dotted name, and the derived
quantities of :mod:`repro.analysis.metrics` land beside them as
gauges.  :func:`job_metrics_registry` builds the full registry for one
:class:`~repro.framework.job.JobResult`; serialisation is sorted and
wall-clock-free, so ``metrics.json`` for a fixed seed is byte-stable —
the property the ``repro-trace --baseline`` regression diff relies on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..gpu.stats import KernelStats

if TYPE_CHECKING:  # pragma: no cover
    from ..framework.job import JobResult
    from ..gpu.config import DeviceConfig


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Sample-reservoir bound: past this many kept samples the reservoir
#: decimates itself (every other sample, doubled keep-stride), so
#: memory stays bounded while the kept set remains a deterministic
#: function of the observation sequence — no RNG, byte-stable output.
_RESERVOIR_CAP = 2048


@dataclass
class Histogram:
    """Streaming summary of an observed distribution.

    Beyond the running count/total/min/max, a bounded deterministic
    reservoir of samples supports :meth:`percentile` — the p50/p90/p99
    summaries the service-layer latency reporting needs.  Percentiles
    are exact until the reservoir cap, then computed over an
    evenly-strided subsample.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    _samples: list[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)
    _pending: int = field(default=0, repr=False)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._samples.append(value)
            if len(self._samples) > _RESERVOIR_CAP:
                del self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the kept samples (``q`` in
        [0, 100]); 0.0 for an empty histogram."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "max": 0.0, "mean": 0.0, "min": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0, "total": 0.0}
        return {"count": self.count, "max": self.max, "mean": self.mean,
                "min": self.min, "p50": self.percentile(50),
                "p90": self.percentile(90), "p99": self.percentile(99),
                "total": self.total}


#: KernelStats fields that describe the process, not the job.
_PROCESS_STATE_FIELDS = ("analysis_cache_hits", "analysis_cache_misses")


class MetricsRegistry:
    """Named counters, gauges and histograms with get-or-create access."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def absorb_kernel_stats(self, stats: KernelStats, prefix: str) -> None:
        """Fold every numeric counter of a launch under ``prefix``.

        Field discovery is introspective (``dataclasses.fields``), so
        counters added to :class:`KernelStats` later are picked up
        automatically — nothing to hand-maintain here.  The analysis
        cache counters are left out: they depend on what earlier jobs
        in the process warmed, not on this job, and would make the
        registry differ between two runs of the same job.
        """
        for f in dataclasses.fields(stats):
            if f.name in _PROCESS_STATE_FIELDS:
                continue
            value = getattr(stats, f.name)
            if isinstance(value, (int, float)):
                self.counter(f"{prefix}.{f.name}").inc(value)
        for key in sorted(stats.extra):
            value = stats.extra[key]
            # Extras may carry string annotations (the tuner's choice
            # label, for one); counters only fold numbers.
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.counter(f"{prefix}.extra.{key}").inc(value)
        for cat in sorted(stats.stall_cycles):
            self.counter(f"{prefix}.stall_cycles.{cat}").inc(
                stats.stall_cycles[cat]
            )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """Deterministic nested dict (sorted names, plain floats)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self, extra: dict | None = None) -> str:
        """Byte-stable JSON document (optionally with header fields)."""
        doc = {"schema": 1, **(extra or {}), **self.as_dict()}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# Job-level registry
# ----------------------------------------------------------------------


def job_metrics_registry(
    result: "JobResult", config: "DeviceConfig"
) -> MetricsRegistry:
    """The full metrics registry for one finished job."""
    from ..analysis.metrics import derive_metrics

    reg = MetricsRegistry()
    reg.gauge("job.total_cycles").set(result.total_cycles)
    for phase, cycles in result.timings.as_dict().items():
        reg.gauge(f"phase.{phase}").set(cycles)
    reg.counter("job.output_records").inc(len(result.output))
    reg.counter("job.intermediate_records").inc(result.intermediate_count)

    phases = [("map", result.map_stats)]
    if result.strategy is not None:
        phases.append(("reduce", result.reduce_stats))
    for phase, stats in phases:
        reg.absorb_kernel_stats(stats, f"kernel.{phase}")
        derived = derive_metrics(stats, config).as_dict()
        breakdown = derived.pop("stall_breakdown")
        for name, value in derived.items():
            reg.gauge(f"derived.{phase}.{name}").set(value)
        for cat, frac in breakdown.items():
            reg.gauge(f"derived.{phase}.stall_fraction.{cat}").set(frac)
    # Cross-process worker telemetry (dist backend only): shard
    # wall times as percentile-capable histograms plus the straggler
    # skew.  Wall-clock values vary run to run, so these keys only
    # exist where byte-stable metrics.json never did (sharded runs).
    if result.worker_profiles:
        for p in result.worker_profiles:
            reg.histogram(f"worker.{p.phase}.shard_ms").observe(
                p.wall_ns / 1e6
            )
        if result.straggler is not None:
            for ph in result.straggler.phases:
                reg.gauge(f"worker.{ph.phase}.skew").set(ph.skew)
                reg.gauge(f"worker.{ph.phase}.shards").set(ph.shards)
    return reg


# ----------------------------------------------------------------------
# Regression diffing
# ----------------------------------------------------------------------


def flatten_metrics(doc: dict) -> dict[str, float]:
    """Flatten a metrics document into dotted-name -> value."""
    flat: dict[str, float] = {}
    for kind in ("counters", "gauges"):
        for name, value in doc.get(kind, {}).items():
            flat[f"{kind}.{name}"] = value
    for name, summary in doc.get("histograms", {}).items():
        for stat, value in summary.items():
            flat[f"histograms.{name}.{stat}"] = value
    return flat


@dataclass(frozen=True)
class MetricDelta:
    name: str
    baseline: float | None  # None = metric added
    current: float | None  # None = metric removed

    @property
    def ratio(self) -> float | None:
        if self.baseline in (None, 0) or self.current is None:
            return None
        return self.current / self.baseline

    def render(self) -> str:
        if self.baseline is None:
            return f"+ {self.name} = {self.current:g} (new)"
        if self.current is None:
            return f"- {self.name} (was {self.baseline:g})"
        arrow = f"{self.baseline:g} -> {self.current:g}"
        if self.ratio is not None:
            arrow += f" ({self.ratio - 1.0:+.1%})"
        return f"~ {self.name}: {arrow}"


def diff_metrics(
    baseline: dict, current: dict, *, rel_tol: float = 0.0
) -> list[MetricDelta]:
    """Compare two metrics documents; returns deltas beyond ``rel_tol``.

    ``rel_tol`` is the allowed relative change (0.05 = 5%); additions
    and removals are always reported.
    """
    base = flatten_metrics(baseline)
    cur = flatten_metrics(current)
    deltas: list[MetricDelta] = []
    for name in sorted(set(base) | set(cur)):
        b, c = base.get(name), cur.get(name)
        if b is None or c is None:
            deltas.append(MetricDelta(name, b, c))
            continue
        if b == c:
            continue
        denom = abs(b) if b else 1.0
        if abs(c - b) / denom > rel_tol:
            deltas.append(MetricDelta(name, b, c))
    return deltas
