"""Tests for hierarchical result collection and overflow handling.

These drive the collector with synthetic kernels so the double-ended
stack, the flush protocol and the direct atomic path are exercised in
isolation from the Map engine.
"""

import pytest

from repro.errors import KernelFault
from repro.framework import MemoryMode, OutputBuffers, plan_layout
from repro.framework.collector import (
    COMPUTE_DONE,
    CollectorState,
    collect_warp_result,
    direct_emit_warp,
    init_collector,
    poll_interval,
    request_final_flush,
    wait_loop,
)
from repro.gpu import Device, DeviceConfig
from repro.gpu.instructions import AtomicShared


def make_setup(n_warps=4, out_caps=(4096, 4096, 256), mode=MemoryMode.SO):
    dev = Device(DeviceConfig.small(1))
    layout = plan_layout(
        smem_budget=16 * 1024,
        threads_per_block=32 * n_warps,
        mode=mode,
    )
    out = OutputBuffers.allocate(
        dev.gmem,
        key_capacity=out_caps[0],
        val_capacity=out_caps[1],
        record_capacity=out_caps[2],
    )
    return dev, layout, out


def staged_kernel(records_per_compute_warp, n_compute=2):
    """Build a kernel where warps < n_compute emit, the rest help."""

    def kernel(ctx, layout, out):
        bs = ctx.block_state
        if ctx.warp_id == 0:
            cs = CollectorState(
                layout=layout, out=out, n_warps=ctx.warps_per_block,
                n_compute=n_compute,
            )
            init_collector(ctx, cs)
            bs["cs"] = cs
        yield from ctx.barrier()
        cs = bs["cs"]
        if ctx.warp_id < n_compute:
            for i, (keys, vals) in enumerate(
                records_per_compute_warp(ctx.warp_id)
            ):
                yield from collect_warp_result(ctx, cs, keys, vals)
            done = ctx.smem.atomic_add_u32(layout.flags_off + COMPUTE_DONE, 1)
            yield AtomicShared(addr=layout.flags_off + COMPUTE_DONE, old=done)
            if done == n_compute - 1:
                yield from request_final_flush(ctx, cs)
            else:
                yield from wait_loop(ctx, cs)
        else:
            yield from wait_loop(ctx, cs)

    return kernel


class TestStagedCollection:
    def test_records_reach_global_memory(self):
        dev, layout, out = make_setup()

        def gen(w):
            yield ([f"k{w}a".encode()], [f"v{w}a".encode()])
            yield ([f"k{w}b".encode()], [f"v{w}b".encode()])

        k = staged_kernel(gen)
        dev.launch(k, grid=1, block=128, smem_bytes=layout.smem_bytes,
                   args=(layout, out))
        got = sorted(out.as_record_set().download())
        assert got == sorted([
            (b"k0a", b"v0a"), (b"k0b", b"v0b"),
            (b"k1a", b"v1a"), (b"k1b", b"v1b"),
        ])

    def test_multi_record_warp_results(self):
        dev, layout, out = make_setup()

        def gen(w):
            keys = [f"warp{w}rec{i}".encode() for i in range(8)]
            vals = [f"val{i}".encode() for i in range(8)]
            yield (keys, vals)

        dev.launch(staged_kernel(gen), grid=1, block=128,
                   smem_bytes=layout.smem_bytes, args=(layout, out))
        rs = out.as_record_set()
        assert rs.count == 16
        got = dict(list(rs.download()))
        assert got[b"warp1rec3"] == b"val3"

    def test_overflow_flushes_and_preserves_everything(self):
        """Emit far more than the output area holds: every record must
        still arrive, via multiple overflow flushes."""
        dev, layout, out = make_setup(out_caps=(1 << 16, 1 << 16, 4096))
        n_rounds = 40

        def gen(w):
            for r in range(n_rounds):
                keys = [bytes([65 + w]) * 24 for _ in range(16)]
                vals = [r.to_bytes(4, "little")] * 16
                yield (keys, vals)

        st = dev.launch(staged_kernel(gen), grid=1, block=128,
                        smem_bytes=layout.smem_bytes, args=(layout, out))
        rs = out.as_record_set()
        assert rs.count == 2 * n_rounds * 16
        assert st.extra.get("overflow_flushes", 0) >= 1
        assert st.extra.get("flushes", 0) >= 2  # overflow(s) + final

    def test_amortised_atomics(self):
        """The whole point: global atomics ~ 3 per flush, not 3 per
        warp result."""
        dev, layout, out = make_setup(out_caps=(1 << 16, 1 << 16, 4096))

        def gen(w):
            for r in range(20):
                yield ([b"k" * 8] * 16, [b"v" * 4] * 16)

        st = dev.launch(staged_kernel(gen), grid=1, block=128,
                        smem_bytes=layout.smem_bytes, args=(layout, out))
        n_flushes = st.extra["flushes"]
        assert st.atomics_global == 3 * n_flushes
        assert st.atomics_global < 40  # << 3 * 40 warp results

    def test_warp_result_too_big_for_area(self):
        dev, layout, out = make_setup()
        huge = layout.output_bytes  # one record larger than the area

        def gen(w):
            yield ([b"k" * huge], [b""])

        with pytest.raises(KernelFault, match="exceeds the whole output area"):
            dev.launch(staged_kernel(gen, n_compute=1), grid=1, block=128,
                       smem_bytes=layout.smem_bytes, args=(layout, out))

    def test_empty_emission_is_noop(self):
        dev, layout, out = make_setup()

        def gen(w):
            yield ([], [])

        dev.launch(staged_kernel(gen), grid=1, block=128,
                   smem_bytes=layout.smem_bytes, args=(layout, out))
        assert out.as_record_set().count == 0

    def test_unbalanced_compute_warps(self):
        """One warp emits 30 results, the other none (the II-style
        uneven map computation the paper discusses)."""
        dev, layout, out = make_setup()

        def gen(w):
            if w == 0:
                for r in range(30):
                    yield ([f"r{r:03d}".encode()] * 4, [b"x"] * 4)

        dev.launch(staged_kernel(gen), grid=1, block=128,
                   smem_bytes=layout.smem_bytes, args=(layout, out))
        assert out.as_record_set().count == 120


class TestDirectPath:
    def test_direct_emit(self):
        dev, layout, out = make_setup(mode=MemoryMode.G)

        def k(ctx, out):
            keys = [f"w{ctx.warp_id}k{i}".encode() for i in range(4)]
            vals = [f"v{i}".encode() for i in range(4)]
            yield from direct_emit_warp(ctx, out, keys, vals)

        dev.launch(k, grid=1, block=128, smem_bytes=1024, args=(out,))
        rs = out.as_record_set()
        assert rs.count == 16
        got = dict(list(rs.download()))
        assert got[b"w3k2"] == b"v2"

    def test_direct_emit_atomics_per_warp_result(self):
        dev, layout, out = make_setup(mode=MemoryMode.G)

        def k(ctx, out):
            for _ in range(5):
                yield from direct_emit_warp(ctx, out, [b"k"], [b"v"])

        st = dev.launch(k, grid=1, block=128, smem_bytes=1024, args=(out,))
        # 4 warps x 5 results x 3 counters.
        assert st.atomics_global == 60

    def test_direct_emit_capacity_enforced(self):
        dev, layout, out = make_setup(mode=MemoryMode.G, out_caps=(64, 64, 4))

        def k(ctx, out):
            yield from direct_emit_warp(ctx, out, [b"k" * 40] * 8, [b"v"] * 8)

        with pytest.raises(KernelFault, match="overflow"):
            dev.launch(k, grid=1, block=32, smem_bytes=1024, args=(out,))

    def test_interleaving_across_blocks(self):
        """Atomic reservations from many blocks never overlap."""
        dev, layout, out = make_setup(mode=MemoryMode.G,
                                      out_caps=(1 << 16, 1 << 16, 4096))

        def k(ctx, out):
            tag = f"b{ctx.block_id}w{ctx.warp_id}".encode()
            yield from direct_emit_warp(ctx, out, [tag] * 8,
                                        [bytes([i]) for i in range(8)])

        dev.launch(k, grid=8, block=64, smem_bytes=1024, args=(out,))
        rs = out.as_record_set()
        assert rs.count == 8 * 2 * 8
        records = list(rs.download())
        assert len(set(records)) == len(set(
            (k_, v) for k_, v in records
        ))
        # Every (tag, value) pair present exactly once.
        assert len({(k_, v) for k_, v in records}) == 8 * 2 * 8


class TestYieldDiscipline:
    def test_poll_interval_values(self):
        dev = Device(DeviceConfig.small(1))
        holder = {}

        def k(ctx):
            holder["spin"] = poll_interval(ctx, False)
            holder["yield"] = poll_interval(ctx, True)
            yield from ctx.compute(1)

        dev.launch(k, grid=1, block=32)
        assert holder["yield"] > 10 * holder["spin"]

    def test_spin_consumes_more_issue_slots(self):
        """The Figure 8 mechanism: a helper warp parked in
        ``wait_loop`` probes the overflow flag far more often when it
        spins than when it yields, over the same wait."""

        def run(yield_sync):
            dev, layout, out = make_setup(n_warps=2)

            def k(ctx, layout, out):
                bs = ctx.block_state
                if ctx.warp_id == 0:
                    cs = CollectorState(layout=layout, out=out, n_warps=2,
                                        n_compute=1, yield_sync=yield_sync)
                    init_collector(ctx, cs)
                    bs["cs"] = cs
                yield from ctx.barrier()
                cs = bs["cs"]
                if ctx.warp_id == 0:
                    yield from ctx.compute(20000)
                    yield from collect_warp_result(ctx, cs, [b"k"], [b"v"])
                    yield from request_final_flush(ctx, cs)
                else:
                    yield from wait_loop(ctx, cs)

            st = dev.launch(k, grid=1, block=64, smem_bytes=layout.smem_bytes,
                            args=(layout, out))
            assert out.as_record_set().count == 1
            return st

        spin = run(False)
        yld = run(True)
        assert spin.polls > 5 * yld.polls
