"""Structured tracing on the simulated clock — and, opt-in, the wall
clock alongside it.

A :class:`Tracer` owns a monotonic *sim-cycle* clock (``now``) and a
stack of open :class:`Span` objects.  Host code opens spans around the
work it performs and advances the clock by the modelled cycle cost of
each step; kernel launches are folded in with :meth:`Tracer.kernel`,
which also ingests the launch's per-warp :class:`~repro.gpu.timeline.
Timeline` (events and instant marks) into absolute job time, so host
phases and device activity render on one timeline.

The sim clock is the primary axis: traces are deterministic for a
fixed seed and byte-stable across runs.  ``Tracer(wall_clock=True)``
additionally stamps every span and instant with
``time.perf_counter_ns()`` — the *dual-clock* mode the fast and
dist backends use, whose kernel cycles are zero by design and
whose real cost is wall time.  Wall stamps are strictly additive:
with ``wall_clock=False`` (the default, what every sim run uses)
nothing wall-clock-shaped is recorded and exported traces are
byte-identical to the single-clock format.

Cross-process worker activity (the dist backend's per-shard phase
profiles) lands as :class:`WorkerEvent` records via
:meth:`Tracer.worker_span`; they are inherently wall-clock (forked
children share the parent's ``perf_counter`` epoch on Linux, so their
absolute nanosecond stamps are directly comparable) and render as one
track per worker in the Chrome export.

Framework entry points take ``tracer=None`` and substitute
:data:`NULL_TRACER`, whose methods are all no-ops, so the untraced
hot path stays free of conditionals and allocation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..gpu.stats import KernelStats
    from ..gpu.timeline import Timeline


@dataclass
class Span:
    """One named interval on the job clock, possibly nested.

    ``wall_start``/``wall_end`` are ``perf_counter_ns`` stamps, filled
    only under ``Tracer(wall_clock=True)`` — ``None`` otherwise.
    """

    name: str
    start: float
    end: float = 0.0
    depth: int = 0
    parent: "Span | None" = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    wall_start: int | None = None
    wall_end: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wall_duration_ns(self) -> int | None:
        if self.wall_start is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def __repr__(self) -> str:  # keep parent out to avoid recursion
        return (
            f"Span({self.name!r}, {self.start:.0f}..{self.end:.0f}, "
            f"depth={self.depth})"
        )


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration host-side event."""

    name: str
    time: float
    attrs: dict = field(default_factory=dict)
    wall_time: int | None = None


@dataclass(frozen=True)
class WorkerEvent:
    """One wall-clock interval of work done by a worker process.

    ``worker`` is the stable track id (the shard index for sharded
    phases); ``start_ns``/``end_ns`` are absolute ``perf_counter_ns``
    stamps taken inside the worker process.
    """

    worker: int
    name: str
    start_ns: int
    end_ns: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class DeviceEvent:
    """One device-side interval or mark, in absolute job time.

    ``category`` is a :mod:`repro.gpu.timeline` instruction category
    (``compute``/``global_read``/``poll``/...), the coalesced
    ``poll_wait`` episode, or ``mark`` for instant markers raised by
    framework code (overflow flushes, final flushes).
    """

    kernel: str
    block: int
    warp: int
    category: str
    start: float
    end: float
    name: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, instants and device events for one job run."""

    def __init__(
        self,
        *,
        kernel_detail: bool = True,
        trace_blocks: set[int] | frozenset[int] | None = frozenset({0}),
        coalesce_polls: bool = True,
        wall_clock: bool = False,
    ):
        #: Current job time in simulated cycles.
        self.now: float = 0.0
        #: Record per-warp timelines for kernel launches?
        self.kernel_detail = kernel_detail
        #: Which blocks to trace at warp granularity (None = all).
        self.trace_blocks = (
            None if trace_blocks is None else set(trace_blocks)
        )
        self.coalesce_polls = coalesce_polls
        #: Stamp spans/instants with ``perf_counter_ns`` too?
        self.wall_clock = wall_clock
        #: Wall origin for exports: worker events and wall-stamped
        #: spans are rebased against this so the exported timeline
        #: starts near zero.  Cheap enough to take unconditionally.
        self.wall_origin_ns: int = time.perf_counter_ns()
        self.roots: list[Span] = []
        self.spans: list[Span] = []  # every span, in open order
        self.instants: list[InstantEvent] = []
        self.device_events: list[DeviceEvent] = []
        self.worker_events: list[WorkerEvent] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def advance(self, cycles: float) -> None:
        """Advance the job clock by a modelled cost."""
        if cycles > 0:
            self.now += cycles

    # ------------------------------------------------------------------
    # Spans and instants
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; closes at the current clock on exit."""
        sp = Span(
            name=name,
            start=self.now,
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else None,
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        if self.wall_clock:
            sp.wall_start = time.perf_counter_ns()
        if sp.parent is not None:
            sp.parent.children.append(sp)
        else:
            self.roots.append(sp)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = max(self.now, sp.start)
            if self.wall_clock:
                sp.wall_end = time.perf_counter_ns()

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration host event at the current clock."""
        wall = time.perf_counter_ns() if self.wall_clock else None
        self.instants.append(
            InstantEvent(name=name, time=self.now, attrs=attrs,
                         wall_time=wall)
        )

    def worker_span(self, worker: int, name: str, start_ns: int,
                    end_ns: int, **attrs) -> None:
        """Record one wall-clock interval of worker-process activity.

        Used by the dist backend to merge per-shard phase profiles
        shipped back from forked workers; each distinct ``worker`` id
        becomes its own track in the Chrome export.
        """
        self.worker_events.append(WorkerEvent(
            worker=worker, name=name, start_ns=start_ns, end_ns=end_ns,
            attrs={k: v for k, v in attrs.items() if v is not None},
        ))

    # ------------------------------------------------------------------
    # Kernel launches
    # ------------------------------------------------------------------

    def make_timeline(self) -> "Timeline | None":
        """A fresh :class:`Timeline` for the next launch (or ``None``
        when kernel detail is off); pass it to ``launch(timeline=...)``
        and hand it back to :meth:`kernel`."""
        if not self.kernel_detail:
            return None
        from ..gpu.timeline import Timeline

        return Timeline(blocks=self.trace_blocks)

    def kernel(
        self,
        name: str,
        stats: "KernelStats",
        timeline: "Timeline | None" = None,
        **attrs,
    ) -> Span:
        """Fold a finished launch into the trace.

        Opens a span of ``stats.cycles`` at the current clock, ingests
        the launch timeline (events offset into job time, consecutive
        polls per lane coalesced into ``poll_wait`` episodes, marks as
        instant device events) and advances the clock.
        """
        with self.span(name, **attrs) as sp:
            sp.attrs.setdefault("cycles", stats.cycles)
            sp.attrs.setdefault("grid_blocks", stats.grid_blocks)
            sp.attrs.setdefault("threads_per_block", stats.threads_per_block)
            sp.attrs.setdefault("instructions", stats.instructions)
            for key in ("flushes", "overflow_flushes"):
                if key in stats.extra:
                    sp.attrs.setdefault(key, stats.extra[key])
            if timeline is not None:
                self._ingest_timeline(name, sp.start, timeline)
            self.advance(stats.cycles)
        return sp

    def _ingest_timeline(
        self, kernel: str, base: float, timeline: "Timeline"
    ) -> None:
        by_lane: dict[tuple[int, int], list] = {}
        for e in timeline.events:
            by_lane.setdefault((e.block, e.warp), []).append(e)
        for (block, warp), events in sorted(by_lane.items()):
            run: list = []  # pending consecutive poll events

            def flush_run() -> None:
                if not run:
                    return
                self.device_events.append(DeviceEvent(
                    kernel=kernel, block=block, warp=warp,
                    category="poll_wait",
                    start=base + run[0].start, end=base + run[-1].end,
                    attrs={"probes": len(run)},
                ))
                run.clear()

            for e in events:
                if self.coalesce_polls and e.category == "poll":
                    run.append(e)
                    continue
                flush_run()
                self.device_events.append(DeviceEvent(
                    kernel=kernel, block=block, warp=warp,
                    category=e.category,
                    start=base + e.start, end=base + e.end,
                ))
            flush_run()
        for m in timeline.marks:
            self.device_events.append(DeviceEvent(
                kernel=kernel, block=m.block, warp=m.warp, category="mark",
                start=base + m.time, end=base + m.time,
                name=m.name, attrs=dict(m.attrs),
            ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in open order."""
        return [s for s in self.spans if s.name == name]


class NullTracer:
    """No-op stand-in so framework code needs no ``if tracer`` guards."""

    now = 0.0
    kernel_detail = False
    wall_clock = False

    def span(self, name: str, **attrs) -> nullcontext:
        return _NULL_SPAN

    def advance(self, cycles: float) -> None:
        pass

    def instant(self, name: str, **attrs) -> None:
        pass

    def worker_span(self, worker, name, start_ns, end_ns, **attrs) -> None:
        pass

    def make_timeline(self) -> None:
        return None

    def kernel(self, name, stats, timeline=None, **attrs) -> None:
        return None


#: The one context every untraced span enters (no generator per span).
_NULL_SPAN = nullcontext()

#: Shared no-op tracer used whenever ``tracer=None`` is passed.
NULL_TRACER = NullTracer()
