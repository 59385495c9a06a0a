"""Cycle-accurate execution backend (the paper's numbers).

Wraps the existing discrete-event engine behind the
:class:`ExecutionBackend` protocol.  Behaviour-preserving by
construction: every phase performs exactly the calls the four
pre-refactor drivers made, in the same order, with the same staging
labels — per-phase cycle counts and :class:`KernelStats` for the
Figure 5–8 suite are identical before and after the refactor.

The Mars two-pass engine is selected by ``plan.engine == "mars"``:
host transfers and the Shuffle are shared ("Our framework and Mars
share the same data transmission ... as well as the same shuffle
phase", Section IV-F) while Map and Reduce dispatch to the count /
scan / write pipeline in :mod:`repro.mars.framework`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..framework.host import retire_output, stage_input
from ..framework.map_engine import build_map_runtime, launch_map
from ..framework.records import DeviceRecordSet
from ..framework.reduce_engine import build_reduce_runtime, launch_reduce
from ..framework.shuffle import shuffle
from ..gpu.config import DeviceConfig
from ..gpu.kernel import Device
from ..gpu.stats import KernelStats
from .base import ExecutionBackend
from .plan import JobPlan


@dataclass
class SimContext:
    """Per-job state of a simulated run."""

    plan: JobPlan
    dev: Device
    #: The job's sanitizer (:class:`repro.check.Sanitizer`) when
    #: checking is enabled, else None.
    sanitizer: object = None

    @property
    def config(self) -> DeviceConfig:
        return self.dev.config


class SimBackend(ExecutionBackend):
    """Execute on the simulated GPU (discrete-event, warp-accurate)."""

    name = "sim"

    def open(self, plan: JobPlan) -> SimContext:
        from ..check import Sanitizer, resolve_check

        dev = plan.device or Device(plan.config or DeviceConfig.gtx280())
        sanitizer = None
        cfg = resolve_check(plan.settings["check"])
        if cfg is not None:
            sanitizer = Sanitizer(cfg)
            dev.checker = sanitizer
        return SimContext(plan=plan, dev=dev, sanitizer=sanitizer)

    def finish_check(self, ctx: SimContext):
        if ctx.sanitizer is None:
            return None
        ctx.dev.checker = None
        return ctx.sanitizer.finish()

    # -- transfers -----------------------------------------------------

    def upload_input(self, ctx, kvs, label):
        d_in, cost = stage_input(ctx.dev.gmem, kvs, ctx.config, label=label)
        return d_in, cost.cycles

    def download_output(self, ctx, handle):
        out, cost = retire_output(handle, ctx.config)
        return out, cost.cycles

    def absorb_batch(self, ctx, sink, handle):
        sink.extend(handle.download())

    def stage_intermediate(self, ctx, sink, label):
        return DeviceRecordSet.upload(ctx.dev.gmem, sink, label=label)

    def record_count(self, ctx, handle) -> int:
        return handle.count

    # -- phases --------------------------------------------------------

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        plan = ctx.plan
        if plan.is_mars:
            from ..mars.framework import mars_map_phase

            return mars_map_phase(
                ctx.dev, plan.spec, d_in,
                threads_per_block=plan.threads_per_block, tracer=tr,
            )
        rt = build_map_runtime(
            ctx.dev, plan.spec, plan.mode, d_in,
            threads_per_block=plan.threads_per_block,
            yield_sync=plan.yield_sync,
            io_ratio=plan.io_ratio,
        )
        tl = tr.make_timeline()
        stats = launch_map(ctx.dev, rt, timeline=tl)
        attrs = {"batch": batch} if batch is not None else {"grid": rt.grid}
        tr.kernel("map_kernel", stats, timeline=tl, **attrs)
        return rt.out.as_record_set(), stats

    def shuffle_phase(self, ctx, inter, tr, label):
        plan = ctx.plan
        kwargs = {}
        if plan.shuffle_method is not None:
            kwargs = dict(method=plan.shuffle_method, device=ctx.dev)
        shuf = shuffle(ctx.dev.gmem, inter, ctx.config, label=label, **kwargs)
        return shuf.grouped, shuf.cycles, shuf.grouped.n_groups

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        plan = ctx.plan
        if plan.is_mars:
            from ..mars.framework import mars_reduce_phase

            return mars_reduce_phase(
                ctx.dev, plan.spec, grouped,
                threads_per_block=plan.threads_per_block, tracer=tr,
            )
        rt = build_reduce_runtime(
            ctx.dev, plan.spec, plan.reduce_mode, plan.strategy, grouped,
            threads_per_block=plan.threads_per_block,
            yield_sync=plan.yield_sync,
        )
        tl = tr.make_timeline()
        stats = launch_reduce(ctx.dev, rt, timeline=tl)
        attrs = {"grid": rt.grid} if include_grid else {}
        tr.kernel("reduce_kernel", stats, timeline=tl, **attrs)
        return rt.out.as_record_set(), stats
