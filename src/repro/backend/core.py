"""The execution core: one phase sequencer for every driver.

Before this module, the upload -> Map -> Shuffle -> Reduce -> download
workflow was re-implemented four times (``run_job``,
``run_streamed_job``, ``IterativeJob.run``, ``run_mars_job``); PR 1
had to thread the tracer through each copy by hand.  Now each driver
lowers its arguments to a :class:`~repro.backend.plan.JobPlan` and
calls :func:`execute_plan`, whose one sequencer runs the shared-memory
framework and the Mars baseline (which differs only in its Map/Reduce
phases and labels), single-shot or streamed: a batched plan (Section
III-A) only feeds its Map stage batch by batch.

Observability (spans, phase timings, kernel events) lives here once:
a future hook lands in one place, not four.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..framework.job import JobResult, PhaseTimings
from ..framework.records import KeyValueSet
from ..gpu.stats import KernelStats
from ..obs import ledger
from ..obs.telemetry import summarize_workers
from ..obs.tracer import NULL_TRACER, Tracer
from .base import ExecutionBackend
from .plan import JobPlan


def _apply_check(backend: ExecutionBackend, ctx, tr, result: JobResult) -> None:
    """Harvest the sanitizer's report (if any) into the job result.

    Findings become tracer instants so exported traces show them; in
    strict mode a non-empty report raises
    :class:`~repro.errors.CheckError`.
    """
    report = backend.finish_check(ctx)
    if report is None:
        return
    result.check_report = report
    for f in report.findings:
        tr.instant("check_finding", detector=f.detector, kind=f.kind,
                   block=f.block, warp=f.warp, message=f.message)
    report.raise_if_findings()


def _apply_telemetry(backend: ExecutionBackend, ctx, result: JobResult) -> None:
    """Harvest cross-process worker profiles (if any) into the result.

    The dist backend banks one :class:`~repro.obs.telemetry.
    ShardProfile` per shard per sharded phase; the straggler summary
    is derived here so every caller sees it on ``JobResult``.
    """
    profiles = backend.finish_telemetry(ctx)
    if not profiles:
        return
    result.worker_profiles = profiles
    result.straggler = summarize_workers(profiles)


def _apply_tuned(plan, result: JobResult) -> None:
    """Bank the tuner's decision into the Map KernelStats extras.

    Strings are safe here: extras are attached after any batch-level
    ``merge()`` (which sums numeric fields) has already happened.  The
    prediction error lands in the ledger, where the actual cost is
    known (:func:`repro.obs.ledger.build_record`).
    """
    decision = getattr(plan, "tuned", None)
    if decision is None or result.map_stats is None:
        return
    extra = result.map_stats.extra
    extra["tuner_choice"] = decision.choice
    extra["tuner_predicted_cost"] = float(decision.predicted_cost)
    extra["tuner_objective"] = decision.objective
    extra["tuner_source"] = decision.source


def _resolve_modes(ctx, plan: JobPlan, inp: KeyValueSet) -> JobPlan:
    """Resolve ``mode="auto"`` with the cost-model tuner
    (:func:`repro.tune.decide_modes`): profile the input, price every
    legal (mode, strategy, block size) candidate by predicted cycles on
    the job's device config, and let ledger history of the exact input
    override the model.  The tuner never runs a kernel.

    Every backend resolves the same way: on the functional backends the
    mode is only a timing label, but equal picks across backends let
    the differential suite compare runs one-to-one.
    """
    from ..tune import decide_modes

    decision = decide_modes(
        plan.spec, inp, config=ctx.config,
        strategy=plan.strategy,
        threads_per_block=plan.threads_per_block,
    )
    return replace(
        plan, mode=decision.mode, strategy=decision.strategy,
        threads_per_block=decision.threads_per_block, tuned=decision,
    ).normalised()


def execute_plan(
    plan: JobPlan,
    inp: KeyValueSet,
    backend: ExecutionBackend,
    tracer: Tracer | None = None,
):
    """Run one job on ``backend``.

    Returns a :class:`JobResult`, or for a batched plan a
    :class:`~repro.framework.streaming.StreamedResult` (the job plus
    its batch pipeline trace).  The phase sequence, span structure and
    timing attribution are exactly those of the pre-refactor drivers;
    the backend supplies the phase primitives.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    wall_t0 = time.perf_counter()
    ctx = backend.open(plan)
    try:
        result, streamed = _execute(plan, inp, backend, ctx, tr)
    finally:
        backend.close(ctx)
    _apply_tuned(ctx.plan, result)
    ledger.record_run(ctx.plan, inp, backend, result,
                      wall_s=time.perf_counter() - wall_t0,
                      streamed=plan.batching is not None)
    return result if streamed is None else streamed


def _execute(plan, inp, backend, ctx, tr):
    """The phase sequencer: ``(job result, streamed result or None)``."""
    if plan.mode == "auto":
        plan = _resolve_modes(ctx, plan, inp)
        ctx.plan = plan
    timings = PhaseTimings()
    result = JobResult(spec_name=plan.spec.name, mode=plan.result_mode,
                       strategy=plan.strategy, output=KeyValueSet(),
                       intermediate_count=0, timings=timings)

    with tr.span(f"job:{plan.spec.name}", **plan.job_attrs(len(inp))):
        intermediate, streamed = _map_stage(plan, inp, backend, ctx, tr,
                                            result)
        result.intermediate_count = backend.record_count(ctx, intermediate)
        final = intermediate  # a Map-only job downloads the Map output

        if plan.strategy is not None:
            # ---- Shuffle --------------------------------------------------
            with tr.span("shuffle", **plan.shuffle_attrs()) as shuffle_span:
                grouped, timings.shuffle, n_groups = backend.shuffle_phase(
                    ctx, intermediate, tr, plan.shuffle_label()
                )
                if shuffle_span is not None and n_groups is not None:
                    # A spilling shuffle streams its groups and does not
                    # know the count until Reduce drains them.
                    shuffle_span.attrs["groups"] = n_groups
                tr.advance(timings.shuffle)

            # ---- Reduce ---------------------------------------------------
            with tr.span("reduce", **plan.reduce_attrs()):
                final, result.reduce_stats = backend.reduce_phase(
                    ctx, grouped, tr, include_grid=plan.batching is None
                )
                timings.reduce = result.reduce_stats.cycles

        # ---- output download ---------------------------------------------
        with tr.span("io_out"):
            result.output, timings.io_out = backend.download_output(ctx, final)
            tr.advance(timings.io_out)

        _apply_telemetry(backend, ctx, result)
        _apply_check(backend, ctx, tr, result)
    return result, streamed


def _map_stage(plan, inp, backend, ctx, tr, result: JobResult):
    """Upload and Map, filling ``result``'s Map stats and ``io_in``/``map``
    timings; returns ``(intermediate handle, streamed result or None)``.

    A batched plan uploads and maps each batch into the backend's sink,
    then stages the sink as an ordinary Map output.  Batch spans are
    serial on the job clock even under overlap; the pipelined
    upload/Map total is attributed ``io_in`` = sum of uploads, ``map``
    = the rest.
    """
    timings = result.timings
    if plan.batching is None:
        with tr.span("io_in"):
            d_in, timings.io_in = backend.upload_input(
                ctx, inp, plan.input_label()
            )
            tr.advance(timings.io_in)
        with tr.span("map", **plan.map_attrs()):
            intermediate, result.map_stats = backend.map_phase(ctx, d_in, tr)
            timings.map = result.map_stats.cycles
        return intermediate, None

    # Local import: streaming.py's front-end imports this module.
    from ..framework.streaming import BatchTrace, StreamedResult, split_batches

    streamed = StreamedResult(job=result, batches=[],
                              overlapped=plan.batching.overlap)
    # The sink is a plain host record set by default; store-aware
    # backends may hand back a budgeted spill store instead.
    sink = backend.stream_sink(ctx)
    map_stats = KernelStats()
    with tr.span("map_stream") as stream_span:
        for bi, batch in enumerate(
                split_batches(inp, plan.batching.n_batches)):
            with tr.span(f"batch[{bi}]", records=len(batch)):
                d_in, up_cycles = backend.upload_input(
                    ctx, batch, plan.input_label(bi)
                )
                with tr.span("upload"):
                    tr.advance(up_cycles)
                out_h, st = backend.map_phase(ctx, d_in, tr, batch=bi)
                map_stats = map_stats.merge(st)
                backend.absorb_batch(ctx, sink, out_h)
                streamed.batches.append(BatchTrace(
                    records=len(batch), upload_cycles=up_cycles,
                    map_cycles=st.cycles, map_stats=st))
    result.map_stats = map_stats
    pipeline = (streamed.pipelined_map_io if plan.batching.overlap
                else streamed.serial_map_io)
    if stream_span is not None:
        stream_span.attrs["serial_map_io"] = streamed.serial_map_io
        stream_span.attrs["pipelined_map_io"] = streamed.pipelined_map_io
        stream_span.attrs["overlap_saving"] = streamed.overlap_saving
    timings.io_in = sum(b.upload_cycles for b in streamed.batches)
    timings.map = max(0.0, pipeline - timings.io_in)
    return (backend.stage_intermediate(ctx, sink, plan.intermediate_label()),
            streamed)
