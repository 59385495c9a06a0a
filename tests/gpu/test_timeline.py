"""Tests for the per-warp timeline tracer."""

import pytest

from repro.gpu import Device, DeviceConfig, Timeline


def make_device():
    return Device(DeviceConfig.small(1))


class TestTimeline:
    def test_records_events(self):
        dev = make_device()
        tl = Timeline()
        a = dev.gmem.alloc(256)

        def k(ctx, a):
            yield from ctx.compute(50)
            yield from ctx.gread(a, 128)

        dev.launch(k, grid=1, block=64, args=(a,), timeline=tl)
        cats = {e.category for e in tl.events}
        assert "compute" in cats and "global_read" in cats
        assert len(tl.lanes()) == 2  # two warps

    def test_span_and_durations(self):
        dev = make_device()
        tl = Timeline()

        def k(ctx):
            yield from ctx.compute(100)

        dev.launch(k, grid=1, block=32, timeline=tl)
        lo, hi = tl.span()
        assert hi - lo >= 100
        assert all(e.duration > 0 for e in tl.events)

    def test_block_filter(self):
        dev = make_device()
        tl = Timeline(blocks={1})

        def k(ctx):
            yield from ctx.compute(10)

        dev.launch(k, grid=4, block=32, timeline=tl)
        assert {e.block for e in tl.events} == {1}

    def test_busy_and_utilisation(self):
        dev = make_device()
        tl = Timeline()

        def k(ctx):
            if ctx.warp_id == 0:
                yield from ctx.compute(1000)
            yield from ctx.barrier()

        dev.launch(k, grid=1, block=64, timeline=tl)
        busy0 = tl.busy_cycles(0, 0)
        assert busy0["compute"] == pytest.approx(1000)
        # Warp 1 spent nearly the whole launch at the barrier.
        busy1 = tl.busy_cycles(0, 1)
        assert busy1["barrier"] > 900
        assert 0.0 < tl.utilisation(0, 0) <= 1.0

    def test_render_gantt(self):
        dev = make_device()
        tl = Timeline()
        a = dev.gmem.alloc(64)

        def k(ctx, a):
            yield from ctx.compute(200)
            yield from ctx.atomic_add_global(a, 1)

        dev.launch(k, grid=1, block=64, args=(a,), timeline=tl)
        art = tl.render(width=60)
        assert "b000w00" in art and "b000w01" in art
        assert "#" in art  # compute glyph
        assert "A" in art  # atomic glyph

    def test_empty_render(self):
        assert Timeline().render() == "(empty timeline)"

    def test_helper_warp_polls_are_visible(self):
        """The framework's parked helpers show up as poll glyphs."""
        from repro.framework import DeviceRecordSet, KeyValueSet, MemoryMode
        from repro.framework.map_engine import build_map_runtime, map_kernel
        from repro.framework.api import MapReduceSpec

        dev = make_device()
        tl = Timeline(blocks={0})
        spec = MapReduceSpec(
            name="t", map_record=lambda k, v, e, c: e(k.to_bytes(), b"1")
        )
        inp = KeyValueSet([(b"record%03d" % i, b"") for i in range(64)])
        d_in = DeviceRecordSet.upload(dev.gmem, inp)
        rt = build_map_runtime(dev, spec, MemoryMode.SIO, d_in,
                               threads_per_block=128)
        dev.launch(map_kernel, grid=rt.grid, block=128,
                   smem_bytes=rt.layout.smem_bytes, args=(rt,), timeline=tl)
        polls = [e for e in tl.events if e.category == "poll"]
        assert polls  # helpers were parked at some point


class TestTimelineEdgeCases:
    def test_zero_duration_span_renders_empty(self):
        tl = Timeline()
        tl.record(0, 0, "compute", 500.0, 500.0)
        assert tl.span() == (500.0, 500.0)
        assert tl.render() == "(empty timeline)"

    def test_zero_duration_span_utilisation(self):
        tl = Timeline()
        tl.record(0, 0, "compute", 500.0, 500.0)
        assert tl.utilisation(0, 0) == 0.0

    def test_render_explicit_lane_subset(self):
        dev = make_device()

        def k(ctx):
            yield from ctx.compute(50)

        tl = Timeline()
        dev.launch(k, grid=2, block=64, timeline=tl)
        out = tl.render(lanes=[(0, 0)])
        assert "b000w00" in out
        assert "b000w01" not in out
        assert "b001w00" not in out

    def test_utilisation_for_silent_warp(self):
        dev = make_device()

        def k(ctx):
            yield from ctx.compute(50)

        tl = Timeline()
        dev.launch(k, grid=1, block=32, timeline=tl)
        # Warp 9 of block 5 never ran: no events, utilisation is zero.
        assert tl.utilisation(5, 9) == 0.0

    def test_empty_timeline_utilisation_and_span(self):
        tl = Timeline()
        assert tl.span() == (0.0, 0.0)
        assert tl.utilisation(0, 0) == 0.0


class TestTimelineMarks:
    def test_mark_records_and_respects_block_filter(self):
        tl = Timeline(blocks={0})
        tl.mark(0, 1, "flush", 42.0, {"epoch": 1})
        tl.mark(3, 0, "flush", 50.0)  # filtered out
        assert len(tl.marks) == 1
        m = tl.marks[0]
        assert (m.block, m.warp, m.name, m.time) == (0, 1, "flush", 42.0)
        assert m.attrs == {"epoch": 1}

    def test_marks_do_not_affect_render_or_utilisation(self):
        tl = Timeline()
        tl.mark(0, 0, "flush", 10.0)
        assert tl.render() == "(empty timeline)"
        assert tl.utilisation(0, 0) == 0.0

    def test_ctx_mark_surfaces_through_launch(self):
        dev = make_device()

        def k(ctx):
            yield from ctx.compute(10)
            ctx.mark("checkpoint", stage=1)
            yield from ctx.compute(10)

        tl = Timeline()
        dev.launch(k, grid=1, block=32, timeline=tl)
        marks = [m for m in tl.marks if m.name == "checkpoint"]
        assert len(marks) == 1
        assert marks[0].attrs == {"stage": 1}
        assert marks[0].time > 0.0

    def test_ctx_mark_reads_the_clock_of_its_own_step(self):
        # Warp 1 issues one issue slot (4 cycles) behind warp 0, so each
        # mark carries its own warp's wake time, not a stale clock.
        dev = make_device()

        def k(ctx):
            yield from ctx.compute(10)
            ctx.mark("checkpoint")
            yield from ctx.compute(10)

        tl = Timeline()
        dev.launch(k, grid=1, block=64, timeline=tl)
        assert [(m.warp, m.time) for m in tl.marks] == [(0, 10.0), (1, 14.0)]
        assert [(e.warp, e.start, e.end) for e in tl.events] == [
            (0, 0.0, 10.0), (1, 4.0, 14.0), (0, 10.0, 20.0), (1, 14.0, 24.0),
        ]
