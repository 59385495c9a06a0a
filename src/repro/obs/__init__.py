"""``repro.obs`` — unified tracing, profiling and metrics.

The observability layer ties the host-side phases of a job (upload ->
Map -> Shuffle -> Reduce -> download), iterative and streamed drivers,
and per-warp kernel events into one inspectable record:

* :class:`Tracer` — nested spans and instant events on a monotonic
  sim-cycle clock, captured by passing ``tracer=`` to
  :func:`repro.framework.job.run_job` (and the iterative / streamed /
  Mars drivers);
* exporters — Chrome/Perfetto ``trace_event`` JSON and a compact
  JSONL event log (:mod:`repro.obs.exporters`);
* :class:`MetricsRegistry` — counters / gauges / histograms derived
  from :class:`~repro.gpu.stats.KernelStats` and the analysis layer,
  serialised deterministically for perf-regression diffing
  (:mod:`repro.obs.metrics`);
* the ``repro-trace`` CLI (:mod:`repro.obs.cli`) — run any workload
  under any mode/strategy and emit trace + profile + metrics files;
* cross-process worker telemetry (:mod:`repro.obs.telemetry`) — the
  dist backend ships a per-shard phase profile back from each
  worker; the merge surfaces per-worker tracks in the Chrome export
  and a straggler summary on :class:`~repro.framework.job.JobResult`;
* the persistent run ledger (:mod:`repro.obs.ledger`) — every
  executed job appends one JSONL record to ``.repro/runs.jsonl``
  (opt-out with ``REPRO_LEDGER=0``), which the ``repro-report`` CLI
  (:mod:`repro.obs.report_cli`) renders as trajectory tables,
  regression flags and backend comparisons.
"""

from .exporters import (
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .ledger import (
    append_record,
    build_record,
    ledger_path,
    read_ledger,
    record_run,
)
from .metrics import (
    MetricsRegistry,
    diff_metrics,
    flatten_metrics,
    job_metrics_registry,
)
from .report import render_job_profile, render_span_tree
from .telemetry import (
    PhaseImbalance,
    ShardProfile,
    WorkerSummary,
    summarize_workers,
)
from .tracer import (
    NULL_TRACER,
    DeviceEvent,
    NullTracer,
    Span,
    Tracer,
    WorkerEvent,
)

__all__ = [
    "DeviceEvent",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseImbalance",
    "ShardProfile",
    "Span",
    "Tracer",
    "WorkerEvent",
    "WorkerSummary",
    "append_record",
    "build_record",
    "diff_metrics",
    "flatten_metrics",
    "job_metrics_registry",
    "ledger_path",
    "read_ledger",
    "record_run",
    "render_job_profile",
    "render_span_tree",
    "summarize_workers",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
