"""Mutation tests: each detector must catch its defect class.

The acceptance bar for a sanitizer is not "runs clean on good code"
but "fires on broken code".  Each test here injects one of the four
defect classes the paper's protocols are vulnerable to — a corrupted
collector cursor, a flag a waiter polls that is never raised, a
missing synchronisation edge, a duplicated global-tail reservation —
and asserts the matching finding appears in the report.  A control
variant of the racy kernel shows the barrier edge silences the
detector (no false positive).
"""

import pytest

from repro.check import CheckConfig, Sanitizer
from repro.errors import DeadlockError, KernelFault
from repro.framework import MemoryMode, OutputBuffers, plan_layout
from repro.framework.collector import (
    COMPUTE_DONE,
    LEFT_USED,
    CollectorState,
    collect_warp_result,
    init_collector,
    poll_interval,
    request_final_flush,
    wait_loop,
)
from repro.gpu import Device, DeviceConfig
from repro.gpu.instructions import AtomicGlobal, AtomicShared


def make_checked_device(**cfg):
    dev = Device(DeviceConfig.small(1))
    san = Sanitizer(CheckConfig(strict=False, **cfg))
    dev.checker = san
    return dev, san


def kinds(report):
    return {f.kind for f in report.findings}


def collector_setup(dev, n_warps=4):
    layout = plan_layout(smem_budget=16 * 1024,
                         threads_per_block=32 * n_warps,
                         mode=MemoryMode.SO)
    out = OutputBuffers.allocate(dev.gmem, key_capacity=4096,
                                 val_capacity=4096, record_capacity=256)
    return layout, out


class TestCollectorMutation:
    def test_corrupted_cursor_is_detected(self):
        """A warp that moves LEFT_USED behind the collector's back
        must trip the cursor shadow on the next reservation."""
        dev, san = make_checked_device(race=False)
        layout, out = collector_setup(dev)

        def k(ctx, layout, out):
            bs = ctx.block_state
            if ctx.warp_id == 0:
                cs = CollectorState(layout=layout, out=out,
                                    n_warps=ctx.warps_per_block, n_compute=1)
                init_collector(ctx, cs)
                bs["cs"] = cs
            yield from ctx.barrier()
            cs = bs["cs"]
            if ctx.warp_id == 0:
                yield from collect_warp_result(ctx, cs, [b"key1"], [b"val1"])
                # Sabotage: advance the directory cursor by one entry.
                base = layout.flags_off
                ctx.smem.write_u32(base + LEFT_USED,
                                   ctx.smem.read_u32(base + LEFT_USED) + 16)
                yield from ctx.stouch(4, write=True)
                yield from collect_warp_result(ctx, cs, [b"key2"], [b"val2"])
                done = ctx.smem.atomic_add_u32(base + COMPUTE_DONE, 1)
                yield AtomicShared(addr=base + COMPUTE_DONE, old=done)
                yield from request_final_flush(ctx, cs)
            else:
                yield from wait_loop(ctx, cs)

        try:
            dev.launch(k, grid=1, block=128, smem_bytes=layout.smem_bytes,
                       args=(layout, out))
        except KernelFault:
            pass  # downstream damage from the corruption is fine
        assert "cursor-mismatch" in kinds(san.finish())


class TestLivenessMutation:
    def test_dropped_signal_deadlocks_with_finding(self):
        """A signaller that never raises its flag strands the waiter;
        the tick rule must call it long before the poll-retry cap."""
        dev, san = make_checked_device(race=False)

        def k(ctx):
            if ctx.warp_id == 0:
                yield from ctx.fence_block()  # "signal" without the flag
            else:
                yield from ctx.poll(ctx.smem.flag_checker(0, 1),
                                    poll_interval(ctx, True))

        with pytest.raises(DeadlockError):
            dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert "deadlock" in kinds(san.finish())


class TestRaceMutation:
    def test_unsynchronised_writes_race(self):
        dev, san = make_checked_device()

        def k(ctx):
            ctx.smem.write_u32(0, ctx.warp_id + 1)  # both warps, no edge
            yield from ctx.stouch(4, write=True)
            yield from ctx.barrier()

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert "write-write-race" in kinds(san.finish())

    def test_barrier_edge_silences_the_detector(self):
        """Control: the same two writes ordered by the block barrier
        are race-free — no false positive."""
        dev, san = make_checked_device()

        def k(ctx):
            if ctx.warp_id == 0:
                ctx.smem.write_u32(0, 1)
                yield from ctx.stouch(4, write=True)
            yield from ctx.barrier()
            if ctx.warp_id == 1:
                ctx.smem.write_u32(0, 2)
                yield from ctx.stouch(4, write=True)

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert san.finish().ok

    def test_read_write_race(self):
        dev, san = make_checked_device()

        def k(ctx):
            if ctx.warp_id == 0:
                ctx.smem.write_u32(8, 7)
                yield from ctx.stouch(4, write=True)
            else:
                ctx.smem.read_u32(8)
                yield from ctx.stouch(4)
            yield from ctx.barrier()

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert "read-write-race" in kinds(san.finish())


class TestAtomicsMutation:
    def test_duplicate_reservation_is_detected(self):
        """Two reservations returning the same old tail means the
        'atomic' wasn't: the linearizability chain must break."""
        dev, san = make_checked_device(race=False)

        def k(ctx):
            yield from ctx.compute(10)
            if ctx.warp_id == 0:
                yield AtomicGlobal(addr=512, old=0, delta=4)
                yield AtomicGlobal(addr=512, old=0, delta=4)  # duplicate

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert "duplicate-reservation" in kinds(san.finish())

    def test_reservation_gap_is_detected(self):
        dev, san = make_checked_device(race=False)

        def k(ctx):
            yield from ctx.compute(10)
            if ctx.warp_id == 0:
                yield AtomicGlobal(addr=512, old=0, delta=4)
                yield AtomicGlobal(addr=512, old=8, delta=4)  # skipped 4..8

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert "reservation-gap" in kinds(san.finish())

    def test_valid_chain_is_clean(self):
        dev, san = make_checked_device(race=False)

        def k(ctx):
            yield from ctx.compute(10)
            if ctx.warp_id == 0:
                yield AtomicGlobal(addr=512, old=0, delta=4)
                yield AtomicGlobal(addr=512, old=4, delta=4)

        dev.launch(k, grid=1, block=64, smem_bytes=256)
        assert san.finish().ok
