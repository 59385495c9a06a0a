"""Outside-in per-layer timing for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  ``run_job`` and
``execute_plan`` look three functions up at call time, and
:func:`seams` swaps each for a timed wrapper while a traced job runs:

* ``repro.backend.get_backend`` returns a :class:`TimedBackend` around
  the real backend, which times its lifecycle and phase primitives;
* ``repro.tune.decide_execution`` (the wall-objective tuner);
* ``repro.obs.ledger.record_run`` (the run ledger append).

Spans are kept in memory and written as one Chrome ``trace_event``
file when the run ends.  Everything a job does outside these calls
(plan normalisation, telemetry and check harvest) is the residual
``core.other_s``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.backend import ExecutionBackend


@dataclass
class Span:
    name: str
    job: int
    parent: str | None
    start: int
    end: int = 0
    args: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        #: The timing proxy handed out for the current job.
        self.backend: TimedBackend | None = None
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].name if self._stack else None
        sp = Span(name, self.job, parent, perf_counter_ns())
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(sp)

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def write_chrome(self, path, title: str) -> None:
        origin = min((sp.start for sp in self.spans), default=0)
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": title}}]
        for sp in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append({
                "name": sp.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (sp.start - origin) / 1e3,
                "dur": (sp.end - sp.start) / 1e3,
                "args": {"job": sp.job, "parent": sp.parent, **sp.args},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class TimedBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` that forwards every call to the real
    backend and times the lifecycle and phase primitives."""

    def __init__(self, inner: ExecutionBackend, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.name = inner.name

    def __getattr__(self, attr):
        # workers, last_counters, ...: whatever the ledger or the
        # benchmark reads off the real backend.
        return getattr(self.inner, attr)

    def open(self, plan):
        with self.rec.span("backend.open"):
            return self.inner.open(plan)

    def close(self, ctx):
        with self.rec.span("backend.close"):
            self.inner.close(ctx)

    def upload_input(self, ctx, kvs, label):
        with self.rec.span("phase.upload"):
            return self.inner.upload_input(ctx, kvs, label)

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        with self.rec.span("phase.map"):
            return self.inner.map_phase(ctx, d_in, tr, batch=batch)

    def shuffle_phase(self, ctx, inter, tr, label):
        with self.rec.span("phase.shuffle") as sp:
            out = self.inner.shuffle_phase(ctx, inter, tr, label)
            sp.args["groups"] = out[2]
            return out

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        with self.rec.span("phase.reduce"):
            return self.inner.reduce_phase(ctx, grouped, tr,
                                           include_grid=include_grid)

    def download_output(self, ctx, handle):
        with self.rec.span("phase.download"):
            return self.inner.download_output(ctx, handle)

    # Untimed: conversions and harvests the core calls between phases.

    def resolve_auto(self, ctx, plan, inp):
        return self.inner.resolve_auto(ctx, plan, inp)

    def to_host(self, ctx, handle):
        return self.inner.to_host(ctx, handle)

    def stage_intermediate(self, ctx, kvs, label):
        return self.inner.stage_intermediate(ctx, kvs, label)

    def record_count(self, ctx, handle):
        return self.inner.record_count(ctx, handle)

    def stream_sink(self, ctx):
        return self.inner.stream_sink(ctx)

    def absorb_batch(self, ctx, sink, handle):
        return self.inner.absorb_batch(ctx, sink, handle)

    def sink_count(self, ctx, sink):
        return self.inner.sink_count(ctx, sink)

    def finish_check(self, ctx):
        return self.inner.finish_check(ctx)

    def finish_telemetry(self, ctx):
        return self.inner.finish_telemetry(ctx)


@contextmanager
def seams(rec: Recorder):
    """Route the three call-time lookups through ``rec`` for one job."""
    import repro.backend as backend_mod
    import repro.obs.ledger as ledger_mod
    import repro.tune as tune_mod

    saved = (backend_mod.get_backend, tune_mod.decide_execution,
             ledger_mod.record_run)
    real_get = saved[0]

    def get_backend(backend=None):
        with rec.span("backend.get"):
            rec.backend = TimedBackend(real_get(backend), rec)
        return rec.backend

    backend_mod.get_backend = get_backend
    tune_mod.decide_execution = rec.timed("tune.decide", saved[1])
    ledger_mod.record_run = rec.timed("ledger.record", saved[2])
    try:
        yield
    finally:
        (backend_mod.get_backend, tune_mod.decide_execution,
         ledger_mod.record_run) = saved


def job_counters(result) -> dict:
    """Per-job work counts read off a :class:`JobResult`."""
    m, r = result.map_stats, result.reduce_stats
    mx, rx = m.extra, r.extra
    batches = mx.get("columnar_batches", 0)
    hits = m.analysis_cache_hits + r.analysis_cache_hits
    lookups = hits + m.analysis_cache_misses + r.analysis_cache_misses
    counters = {
        "map.pairs_out": result.intermediate_count,
        "reduce.records_out": len(result.output),
        "columnar.batches": batches,
        "columnar.map_vectorized_ratio": (
            mx.get("columnar_map_vectorized", 0) / batches if batches
            else 0.0),
        "columnar.reduce_vectorized": rx.get("columnar_reduce_vectorized", 0),
        "store.spill_runs": rx.get("spill_runs", 0),
        "store.spilled_bytes": rx.get("spilled_bytes", 0),
        "store.peak_bytes": rx.get("store_peak_bytes", 0),
        "store.merge_fan_in": rx.get("spill_merge_fan_in", 0),
        # Accepted tasks: one per map split and per reduce key range.
        "dist.map_tasks": mx.get("dist_tasks", 0),
        "dist.reduce_tasks": rx.get("dist_tasks", 0),
        "sim.cycles": result.timings.total,
        "gpu.instructions": m.instructions + r.instructions,
        "gpu.global_transactions": (m.global_transactions
                                    + r.global_transactions),
        "gpu.shared_ops": m.shared_ops + r.shared_ops,
        "gpu.analysis_cache_hit_ratio": hits / lookups if lookups else 0.0,
    }
    for key in ("retries", "speculated", "duplicates", "worker_deaths"):
        counters[f"dist.{key}"] = (mx.get(f"dist_{key}", 0)
                                   + rx.get(f"dist_{key}", 0))
    return counters


#: Seconds metrics read straight off one span name each.
_SPAN_SECONDS = {
    "phase.upload_s": "phase.upload",
    "phase.map_s": "phase.map",
    "phase.shuffle_s": "phase.shuffle",
    "phase.reduce_s": "phase.reduce",
    "phase.download_s": "phase.download",
    "core.close_s": "backend.close",
    "ledger.record_s": "ledger.record",
}


def layer_metrics(spans: list[Span], wall_ns: int, counters: dict,
                  backend) -> dict:
    """One traced job's per-layer times and rates, from its spans."""
    ns = dict.fromkeys(("backend.get", "tune.decide", "backend.open",
                        *_SPAN_SECONDS.values()), 0)
    groups = None
    for sp in spans:
        ns[sp.name] += sp.end - sp.start
        if sp.name == "phase.shuffle":
            groups = sp.args["groups"]
    covered = sum(ns.values())
    out = {metric: ns[name] / 1e9 for metric, name in _SPAN_SECONDS.items()}
    out["core.open_s"] = (ns["backend.get"] + ns["backend.open"]) / 1e9
    out["core.other_s"] = (wall_ns - covered) / 1e9
    out["tune.decide_share"] = ns["tune.decide"] / wall_ns
    out["trace.layer_coverage"] = covered / wall_ns
    pairs = counters["map.pairs_out"]
    # A spilling shuffle streams its groups and learns their count only
    # as Reduce drains them; every workload here emits one record per
    # group, so Reduce's output count stands in.
    out["shuffle.groups"] = (groups if groups is not None
                             else counters["reduce.records_out"])
    out["map.pairs_per_s"] = pairs * 1e9 / max(ns["phase.map"], 1)
    out["shuffle.pairs_per_s"] = pairs * 1e9 / max(ns["phase.shuffle"], 1)
    kernels_ns = max(ns["phase.map"] + ns["phase.reduce"], 1)
    out["gpu.instructions_per_s"] = counters["gpu.instructions"] * 1e9 / kernels_ns
    dist = getattr(backend, "last_counters", None) or {}
    dispatched = dist.get("map_tasks", 0) + dist.get("reduce_tasks", 0)
    accepted = counters["dist.map_tasks"] + counters["dist.reduce_tasks"]
    out["dist.useful_task_ratio"] = (accepted / dispatched if dispatched
                                     else 0.0)
    return out
