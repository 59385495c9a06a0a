"""The sanitizer: wiring between the engine and the four detectors.

A :class:`Sanitizer` is attached to a :class:`repro.gpu.kernel.Device`
as ``device.checker``; each kernel launch then gets its own
:class:`LaunchChecker` (fresh vector clocks and logs per launch, one
shared :class:`~repro.check.report.CheckReport` across the job).

The engine drives the checker from a handful of hook points (current
warp, instruction progress, barrier arrival/release, warp retirement,
global atomics, poll failures); shared-memory traffic reaches the
race detector through a per-block observer installed on the block's
:class:`~repro.gpu.memory.SharedMemory`; the collector reports its
semantic events through ``ctx.checker`` when one is attached.
"""

from __future__ import annotations

from .atomics_check import AtomicsChecker
from .collector_check import CollectorChecker
from .config import CheckConfig
from .liveness import LivenessMonitor
from .race import RaceDetector
from .report import CheckReport


class _SmemObserver:
    """Forwards one block's shared-memory traffic to the race detector."""

    __slots__ = ("ck", "block_id")

    def __init__(self, ck: "LaunchChecker", block_id: int):
        self.ck = ck
        self.block_id = block_id

    def on_read(self, off: int, nbytes: int) -> None:
        self.ck.smem_read(self.block_id, off, nbytes)

    def on_write(self, off: int, nbytes: int) -> None:
        self.ck.smem_write(self.block_id, off, nbytes)

    def on_atomic(self, off: int) -> None:
        self.ck.smem_atomic(self.block_id, off)


class Sanitizer:
    """Job-level checker state: config + the accumulated report."""

    def __init__(self, config: CheckConfig | None = None):
        self.config = config or CheckConfig()
        self.report = CheckReport(strict=self.config.strict)

    def launch_checker(self) -> "LaunchChecker":
        """Fresh per-launch detector state (called by Device.launch)."""
        return LaunchChecker(self.config, self.report)

    def finish(self) -> CheckReport:
        return self.report


class LaunchChecker:
    """Per-launch detector bundle behind the engine's hook points."""

    def __init__(self, config: CheckConfig, report: CheckReport):
        self.config = config
        self.report = report
        self.race = RaceDetector(report, config) if config.race else None
        self.liveness = (LivenessMonitor(report, config)
                         if config.liveness else None)
        self.collector = (CollectorChecker(report, config)
                          if config.collector else None)
        self.atomics = (AtomicsChecker(report, config)
                        if config.atomics else None)
        self._cur_block = 0
        self._cur_warp = 0

    # -- engine hooks --------------------------------------------------

    def block_started(self, blk) -> None:
        if self.race is not None:
            self.race.block_started(blk.block_id, blk.n_warps)
            blk.smem.observer = _SmemObserver(self, blk.block_id)
        if self.liveness is not None:
            self.liveness.register(blk.block_id, blk.n_warps)

    def set_current(self, warp) -> None:
        """The warp whose instruction the engine is about to execute
        (also covers Poll re-probes, whose ``check()`` reads smem)."""
        self._cur_block = warp.block.block_id
        self._cur_warp = warp.warp_id

    def op_progress(self, warp) -> None:
        if self.liveness is not None:
            self.liveness.progress(warp.block.block_id, warp.warp_id)

    def poll_blocked(self, warp) -> bool:
        if self.liveness is None:
            return False
        return self.liveness.poll_blocked(warp.block.block_id, warp.warp_id)

    def deadlock_reason(self) -> str:
        return self.liveness.deadlock_reason()

    def note_deadlock(self, message: str) -> None:
        if self.liveness is not None:
            self.liveness.note_deadlock(message)

    def barrier_wait(self, warp) -> None:
        if self.liveness is not None:
            self.liveness.barrier_wait(warp.block.block_id, warp.warp_id)

    def barrier_release(self, blk, warps) -> None:
        ids = [w.warp_id for w in warps]
        if self.liveness is not None:
            self.liveness.barrier_release(blk.block_id, ids)
        if self.race is not None:
            self.race.barrier_release(blk.block_id, ids)

    def warp_retired(self, warp) -> None:
        bid = warp.block.block_id
        if self.liveness is not None:
            self.liveness.retired(bid, warp.warp_id)
        if self.race is not None:
            self.race.warp_retired(bid, warp.warp_id)

    def atomic_global(self, addr: int, old: int, delta: int) -> None:
        if self.atomics is not None:
            self.atomics.record(addr, old, delta)

    def launch_finished(self, engine) -> None:
        if self.atomics is not None:
            self.atomics.launch_finished()
        if self.collector is not None:
            self.collector.launch_finished()

    # -- shared-memory observer callbacks (installed only with race) ----

    def smem_read(self, block_id: int, off: int, nbytes: int) -> None:
        self.race.on_read(block_id, self._cur_warp, off, nbytes)

    def smem_write(self, block_id: int, off: int, nbytes: int) -> None:
        self.race.on_write(block_id, self._cur_warp, off, nbytes)

    def smem_atomic(self, block_id: int, off: int) -> None:
        self.race.on_atomic(block_id, self._cur_warp, off)

    # -- framework hooks (reached through ctx.checker) ------------------

    def declare_sync_range(self, block_id: int, off: int, nbytes: int) -> None:
        if self.race is not None:
            self.race.declare_sync(block_id, off, nbytes)

    def collector_opened(self, ctx, state) -> None:
        if self.collector is not None:
            self.collector._shadow(ctx, state)

    def collector_reserved(self, ctx, state, wr, old_left, old_right) -> None:
        if self.collector is not None:
            self.collector.reserved(ctx, state, wr, old_left, old_right)

    def collector_flush_reserved(self, ctx, state, wrs, ktot, vtot,
                                 rtot) -> None:
        if self.collector is not None:
            self.collector.flush_reserved(ctx, state, wrs, ktot, vtot, rtot)

    def collector_flush_one(self, ctx, state, wr, kbase, vbase,
                            rbase) -> None:
        if self.collector is not None:
            self.collector.flush_one(ctx, state, wr, kbase, vbase, rbase)

    def collector_flush_reset(self, ctx, state) -> None:
        if self.collector is not None:
            self.collector.flush_reset(ctx, state)
