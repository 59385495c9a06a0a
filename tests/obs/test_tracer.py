"""Tracer core: clock, span nesting, kernel ingestion, null tracer."""

from repro.gpu.stats import KernelStats
from repro.gpu.timeline import Timeline
from repro.obs import NULL_TRACER, NullTracer, Tracer


class TestClockAndSpans:
    def test_nesting_and_clock(self):
        tr = Tracer()
        with tr.span("job", workload="wc"):
            with tr.span("io_in"):
                tr.advance(100)
            with tr.span("map"):
                tr.advance(250)
        assert tr.now == 350
        root = tr.roots[0]
        assert root.name == "job"
        assert (root.start, root.end) == (0, 350)
        assert [c.name for c in root.children] == ["io_in", "map"]
        io_in, mp = root.children
        assert (io_in.start, io_in.end) == (0, 100)
        assert (mp.start, mp.end) == (100, 350)
        assert io_in.parent is root and io_in.depth == 1

    def test_children_contained_in_parent(self):
        tr = Tracer()
        with tr.span("a"):
            tr.advance(10)
            with tr.span("b"):
                tr.advance(5)
                with tr.span("c"):
                    tr.advance(1)
            tr.advance(4)
        for sp in tr.spans:
            if sp.parent is not None:
                assert sp.start >= sp.parent.start
                assert sp.end <= sp.parent.end
                assert sp.depth == sp.parent.depth + 1

    def test_none_attrs_filtered(self):
        tr = Tracer()
        with tr.span("s", keep=1, drop=None) as sp:
            pass
        assert sp.attrs == {"keep": 1}

    def test_zero_duration_span(self):
        tr = Tracer()
        tr.advance(50)
        with tr.span("empty") as sp:
            pass
        assert sp.duration == 0.0
        assert sp.start == sp.end == 50

    def test_negative_advance_ignored(self):
        tr = Tracer()
        tr.advance(10)
        tr.advance(-5)
        assert tr.now == 10

    def test_instants_and_find(self):
        tr = Tracer()
        with tr.span("loop"):
            tr.advance(7)
            tr.instant("converged", iteration=2)
            with tr.span("it"):
                pass
            with tr.span("it"):
                pass
        assert len(tr.find("it")) == 2
        ev = tr.instants[0]
        assert (ev.name, ev.time, ev.attrs) == (
            "converged", 7, {"iteration": 2})


class TestKernelIngestion:
    def _stats(self, cycles=1000.0):
        st = KernelStats(cycles=cycles, instructions=42,
                         grid_blocks=2, threads_per_block=64)
        st.count("flushes", 3)
        return st

    def test_kernel_span_advances_clock_and_carries_attrs(self):
        tr = Tracer()
        tr.advance(500)
        sp = tr.kernel("map_kernel", self._stats())
        assert tr.now == 1500
        assert (sp.start, sp.end) == (500, 1500)
        assert sp.attrs["cycles"] == 1000.0
        assert sp.attrs["grid_blocks"] == 2
        assert sp.attrs["flushes"] == 3

    def test_timeline_events_offset_to_job_time(self):
        tr = Tracer(coalesce_polls=False)
        tr.advance(100)
        tl = tr.make_timeline()
        tl.record(0, 0, "compute", 10.0, 20.0)
        tl.record(0, 1, "global_read", 0.0, 40.0)
        tr.kernel("k", self._stats(), timeline=tl)
        evs = sorted(tr.device_events, key=lambda e: (e.block, e.warp))
        assert (evs[0].start, evs[0].end) == (110.0, 120.0)
        assert (evs[1].start, evs[1].end) == (100.0, 140.0)
        assert evs[0].kernel == "k"

    def test_poll_coalescing(self):
        tr = Tracer()
        tl = tr.make_timeline()
        # Three consecutive polls, an intervening compute, two more polls.
        tl.record(0, 0, "poll", 0.0, 4.0)
        tl.record(0, 0, "poll", 4.0, 8.0)
        tl.record(0, 0, "poll", 8.0, 12.0)
        tl.record(0, 0, "compute", 12.0, 16.0)
        tl.record(0, 0, "poll", 16.0, 20.0)
        tl.record(0, 0, "poll", 20.0, 24.0)
        tr.kernel("k", self._stats(), timeline=tl)
        polls = [e for e in tr.device_events if e.category == "poll_wait"]
        assert len(polls) == 2
        assert polls[0].attrs["probes"] == 3
        assert (polls[0].start, polls[0].end) == (0.0, 12.0)
        assert polls[1].attrs["probes"] == 2
        categories = [e.category for e in tr.device_events]
        assert "poll" not in categories

    def test_marks_become_device_events(self):
        tr = Tracer()
        tr.advance(10)
        tl = tr.make_timeline()
        tl.mark(0, 1, "overflow_flush", 25.0, {"epoch": 0})
        tr.kernel("k", self._stats(), timeline=tl)
        marks = [e for e in tr.device_events if e.category == "mark"]
        assert len(marks) == 1
        m = marks[0]
        assert m.name == "overflow_flush"
        assert m.start == m.end == 35.0
        assert m.attrs == {"epoch": 0}

    def test_make_timeline_respects_detail_flag(self):
        assert Tracer(kernel_detail=False).make_timeline() is None
        tl = Tracer(trace_blocks=frozenset({0, 3})).make_timeline()
        assert isinstance(tl, Timeline)
        assert tl.blocks == {0, 3}


class TestNullTracer:
    def test_all_methods_noop(self):
        nt = NullTracer()
        with nt.span("x", a=1) as sp:
            assert sp is None
        nt.advance(100)
        assert nt.now == 0.0
        nt.instant("y")
        assert nt.make_timeline() is None
        assert nt.kernel("k", KernelStats(cycles=10)) is None

    def test_shared_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
