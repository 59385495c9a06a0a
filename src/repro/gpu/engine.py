"""Discrete-event SIMT execution engine.

The engine runs a kernel launch to completion and returns a
:class:`~repro.gpu.stats.KernelStats`.  Model summary:

* **Warp granularity.** Each warp is one Python generator coroutine
  yielding :mod:`~repro.gpu.instructions` descriptors.  A warp has a
  wake time; the soonest-awake warp issues next (min-heap).
* **Issue port.** Each MP issues at most one warp instruction per
  ``issue_cycles`` (single scheduler port, 32 lanes over 8 SPs).  This
  is the resource that busy-wait polling steals — the mechanism behind
  the paper's Figure 8.
* **Memory system.** All global transactions pass through one
  device-wide bandwidth queue (:class:`MemorySystem`); reads block the
  warp for queueing + latency, writes only for queue admission.
* **Atomic unit.** Global atomics serialise per address
  (:class:`AtomicUnit`) — the contention the paper's output staging
  exists to avoid.
* **Blocks.** A block dispatcher starts as many blocks per MP as the
  occupancy calculation allows and backfills as blocks retire,
  matching Section II-A's description of block scheduling.
* **Observers.** A sanitizer (``checker``) and a timeline hook into the
  one event loop at fixed points and never change a cycle count
  (pinned by ``tests/gpu/test_observer_parity.py``).

Determinism: events are ordered by ``(time, sequence_number)``; no
randomness or wall-clock time is consulted anywhere.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from ..errors import (
    BarrierDivergenceError,
    DeadlockError,
    KernelFault,
    LaunchError,
)
from .analysis_cache import note_timing
from .analysis_cache import totals as _analysis_totals
from .atomics import AtomicUnit
from .coalescing import (
    bytes_touched,
    contiguous_transactions,
    scattered_transactions_cached,
)
from .config import WARP_SIZE, DeviceConfig
from .instructions import (
    AtomicGlobal,
    AtomicGlobalMulti,
    AtomicShared,
    Barrier,
    Compute,
    Fence,
    GlobalRead,
    GlobalWrite,
    Nop,
    Op,
    Poll,
    SharedRead,
    SharedWrite,
    TextureRead,
)
from .interconnect import MemorySystem
from .l2cache import L2Cache
from .memory import SharedMemory
from .stats import KernelStats
from .texture import TextureCache

#: Safety cap on consecutive unsuccessful probes of a single Poll op;
#: prevents an un-satisfiable condition from spinning forever in real
#: time.  Generous: a real deadlock is detected far earlier by the
#: empty-heap check whenever no poller is involved.
MAX_POLL_RETRIES = 2_000_000


@dataclass(slots=True)
class _MP:
    """Per-multiprocessor scheduling state."""

    index: int
    issue_free: float = 0.0
    active_blocks: int = 0
    texture: TextureCache | None = None


@dataclass(slots=True)
class _BlockRt:
    """Runtime state of one resident thread block."""

    block_id: int
    mp: _MP
    smem: SharedMemory
    n_warps: int
    warps_done: int = 0
    barrier_waiting: list["_Warp"] = field(default_factory=list)
    shared_atomics: AtomicUnit | None = None
    #: Non-timed bookkeeping shared across the block's warps (the
    #: framework keeps its Python-side mirrors of smem structures here).
    state: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class _Warp:
    gen: Generator[Op, Any, None]
    block: _BlockRt
    warp_id: int
    inbox: Any = None
    done: bool = False
    retry_op: Poll | None = None
    poll_retries: int = 0
    barrier_arrived_at: float = 0.0
    #: ``block.mp`` and ``gen.send``, flattened — the event loop reads
    #: both once per event.
    mp: "_MP" = None
    send: Any = None

    def __post_init__(self) -> None:
        self.mp = self.block.mp
        self.send = self.gen.send


class Engine:
    """Executes one kernel launch."""

    def __init__(
        self,
        config: DeviceConfig,
        *,
        uses_texture: bool = False,
        max_cycles: float = float("inf"),
        timeline=None,
        checker=None,
    ):
        self.config = config
        self.timing = config.timing
        self.uses_texture = uses_texture
        self.max_cycles = max_cycles
        self.timeline = timeline
        #: Optional per-launch sanitizer hooks
        #: (:class:`repro.check.LaunchChecker`).
        self.checker = checker
        # Flush the access-pattern analysis caches if the timing
        # parameters changed since the previous engine (config sweeps
        # must never be served stale analyses).
        note_timing(config.timing)
        t = self.timing
        self.memsys = MemorySystem(latency=t.global_latency, service=t.txn_service_cycles)
        self.l2: L2Cache | None = None
        if config.l2_cache_bytes > 0:
            self.l2 = L2Cache(
                capacity=config.l2_cache_bytes,
                line_bytes=config.l2_line_bytes,
                ways=config.l2_ways,
                hit_latency=t.l2_hit_latency,
            )
        self.atomics = AtomicUnit(latency=t.atomic_latency, service=t.atomic_service_cycles)
        self.mps = [
            _MP(
                index=i,
                texture=TextureCache(
                    capacity=config.texture_cache_bytes,
                    line_bytes=config.texture_line_bytes,
                    ways=config.texture_ways,
                )
                if uses_texture
                else None,
            )
            for i in range(config.mp_count)
        ]
        self.stats = KernelStats()
        self._heap: list[tuple[float, int, _Warp]] = []
        self._seq = 0
        self._now = 0.0
        self._blocks_live = 0
        self._cache_base = _analysis_totals()

    @property
    def now(self) -> float:
        """Current simulated time (used by untimed timeline marks)."""
        return self._now

    # ------------------------------------------------------------------
    # Launch plumbing
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        grid: int,
        threads_per_block: int,
        smem_bytes: int,
        make_warp: Callable[[_BlockRt, int], Generator[Op, Any, None]],
        regs_per_thread: int = 16,
    ) -> KernelStats:
        """Dispatch ``grid`` blocks and run the event loop to completion.

        ``make_warp(block_rt, warp_id)`` constructs the coroutine for
        one warp of one block (the kernel launcher in
        :mod:`repro.gpu.kernel` supplies this).
        """
        if grid <= 0:
            raise LaunchError("grid must have at least one block")
        if threads_per_block <= 0 or threads_per_block % WARP_SIZE:
            raise LaunchError(
                f"threads_per_block must be a positive multiple of {WARP_SIZE}"
            )
        occupancy = self.config.blocks_per_mp(
            threads_per_block, smem_bytes, regs_per_thread
        )
        if occupancy == 0:
            raise LaunchError(
                f"block shape (threads={threads_per_block}, smem={smem_bytes}B, "
                f"regs/thr={regs_per_thread}) does not fit on an MP"
            )
        self.stats.grid_blocks = grid
        self.stats.threads_per_block = threads_per_block
        self.stats.blocks_per_mp = occupancy

        n_warps = threads_per_block // WARP_SIZE
        self._pending = list(range(grid))
        self._pending.reverse()  # pop() yields block 0 first
        self._make_warp = make_warp
        self._n_warps = n_warps
        self._smem_bytes = smem_bytes

        for mp in self.mps:
            for _ in range(occupancy):
                if not self._start_block(mp, at=0.0):
                    break

        self._cache_base = _analysis_totals()
        self._event_loop()
        if self.checker is not None:
            self.checker.launch_finished(self)
        self.stats.cycles = self._now
        self._harvest_counters()
        return self.stats

    def _start_block(self, mp: _MP, at: float) -> bool:
        if not self._pending:
            return False
        bid = self._pending.pop()
        t = self.timing
        blk = _BlockRt(
            block_id=bid,
            mp=mp,
            smem=SharedMemory(max(self._smem_bytes, 16)),
            n_warps=self._n_warps,
            shared_atomics=AtomicUnit(
                latency=t.shared_latency, service=t.shared_atomic_service_cycles
            ),
        )
        mp.active_blocks += 1
        self._blocks_live += 1
        if self.checker is not None:
            self.checker.block_started(blk)
        for w in range(self._n_warps):
            warp = _Warp(gen=self._make_warp(blk, w), block=blk, warp_id=w)
            self._push(at, warp)
        return True

    def _push(self, time: float, warp: _Warp) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, warp))

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _event_loop(self) -> None:
        """Run the launch's events until no warp is left to wake.

        The hot path of the whole simulator: everything the per-event
        work touches is hoisted into locals, instruction dispatch is
        ordered by measured frequency (rare instructions go to
        :meth:`_execute_cold`), and per-category counters and stall
        totals accumulate in locals that are flushed once at the end
        (kernel coroutines never read them mid-launch).

        Observers hook in at fixed points and never take part in a
        timing expression: the sanitizer (``checker``) hears which warp
        steps next, each op's progress, each failed poll, each global
        atomic and each barrier arrival; the timeline records every
        instruction's (issue, completion) interval.  Pinned by the
        observer-parity matrix in ``tests/gpu/test_observer_parity.py``.
        """
        heap = self._heap
        heappop = heapq.heappop
        pushpop = heapq.heappushpop
        st = self.stats
        stall = st.stall_cycles
        tm = self.timing
        issue_cycles = tm.issue_cycles
        shared_latency = tm.shared_latency
        conflict_penalty = tm.bank_conflict_penalty
        txn_bytes = tm.txn_bytes
        memsys = self.memsys
        mem_read = memsys.request_read
        mem_write = memsys.request_write
        l2 = self.l2
        uses_texture = self.uses_texture
        max_cycles = self.max_cycles
        checker = self.checker
        timeline = self.timeline
        observed = checker is not None or timeline is not None
        now = self._now
        seq = self._seq
        # Each category's key enters ``stall`` at its first use, so the
        # dict keeps the order per-event ``stats.stall`` calls would
        # give it (``stall_breakdown`` sums in that order).
        n_cold = n_shared = n_polls = n_compute = 0
        n_gwrites = n_greads = n_ashared = 0
        s_shared = s_poll = s_compute = 0.0
        s_gwrite = s_gread = s_ashared = 0.0
        # The event loop allocates huge numbers of short-lived objects
        # (heap tuples, op lists, accessors); CPython's generational GC
        # pays a gen-0 pass every ~700 allocations for nothing — kernel
        # state is acyclic and dies with the launch.  Host-only change:
        # simulated timing is unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # ``item`` is the next event to process when already in
            # hand: every dispatch branch reschedules its warp with a
            # single heappushpop (one sift) instead of heappush +
            # heappop (two), and frequently gets its own event back
            # without touching the heap at all.
            item = None
            while True:
                if item is None:
                    if not heap:
                        break
                    item = heappop(heap)
                t, _, warp = item
                item = None
                if warp.done:
                    continue
                if t > now:
                    now = t
                if now > max_cycles:
                    raise DeadlockError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                mp = warp.mp
                t_issue = mp.issue_free
                if t_issue < t:
                    t_issue = t
                mp.issue_free = t_issue + issue_cycles
                if t_issue > now:
                    now = t_issue
                if observed:
                    # ``WarpCtx.mark`` reads ``Engine.now`` mid-step.
                    self._now = now
                    if checker is not None:
                        # Attribute upcoming functional memory traffic
                        # (both a coroutine step and a Poll re-probe
                        # read smem).
                        checker.set_current(warp)

                op = warp.retry_op
                if op is not None:
                    warp.retry_op = None
                else:
                    try:
                        op = warp.send(warp.inbox)
                    except StopIteration:
                        self._seq = seq
                        self._now = now
                        self._retire_warp(warp, t_issue)
                        seq = self._seq
                        continue
                    except Exception as exc:  # pragma: no cover - defensive
                        if isinstance(
                            exc, (DeadlockError, BarrierDivergenceError)
                        ):
                            raise
                        raise KernelFault(
                            f"kernel raised in block {warp.block.block_id} "
                            f"warp {warp.warp_id}: {exc!r}"
                        ) from exc
                    warp.inbox = None

                ty = type(op)

                if ty is SharedRead or ty is SharedWrite:
                    n_shared += 1
                    if n_shared == 1:
                        stall.setdefault("shared", 0.0)
                    lat = shared_latency + (op.conflict - 1) * conflict_penalty
                    s_shared += lat
                    if observed:
                        self._observe(warp, "shared", t_issue, t_issue + lat)
                    seq += 1
                    item = pushpop(heap, (t_issue + lat, seq, warp))

                elif ty is Poll:
                    n_polls += 1
                    if n_polls == 1:
                        stall.setdefault("poll", 0.0)
                    if op.check():
                        warp.inbox = True
                        warp.poll_retries = 0
                        s_poll += issue_cycles
                        if observed:
                            self._observe(
                                warp, "poll", t_issue, t_issue + issue_cycles
                            )
                        seq += 1
                        item = pushpop(heap, (t_issue + issue_cycles, seq, warp))
                    else:
                        # A failed probe is not progress: the checker
                        # hears it as a possible deadlock instead.
                        if checker is not None and checker.poll_blocked(warp):
                            raise DeadlockError(checker.deadlock_reason())
                        warp.poll_retries += 1
                        if warp.poll_retries > MAX_POLL_RETRIES:
                            raise DeadlockError(
                                f"warp {warp.warp_id} of block "
                                f"{warp.block.block_id} exceeded "
                                f"{MAX_POLL_RETRIES} poll probes"
                            )
                        warp.retry_op = op
                        interval = op.interval
                        s_poll += interval
                        if timeline is not None:
                            timeline.record(
                                warp.block.block_id, warp.warp_id, "poll",
                                t_issue, t_issue + interval,
                            )
                        seq += 1
                        item = pushpop(heap, (t_issue + interval, seq, warp))

                elif ty is Compute:
                    n_compute += 1
                    if n_compute == 1:
                        stall.setdefault("compute", 0.0)
                    cycles = op.cycles
                    s_compute += cycles
                    if observed:
                        self._observe(warp, "compute", t_issue, t_issue + cycles)
                    seq += 1
                    item = pushpop(heap, (t_issue + cycles, seq, warp))

                elif ty is GlobalWrite:
                    n_gwrites += 1
                    if n_gwrites == 1:
                        stall.setdefault("global_write", 0.0)
                    if l2 is None:
                        ntxn = op.ntxn
                        if ntxn is not None:
                            done = mem_write(t_issue, ntxn, op.nbytes)
                        else:
                            addrs = op.addrs
                            if addrs is None:
                                nb = op.nbytes
                                done = mem_write(
                                    t_issue,
                                    contiguous_transactions(
                                        op.addr, nb, txn_bytes
                                    ),
                                    nb,
                                )
                            else:
                                done = mem_write(
                                    t_issue,
                                    scattered_transactions_cached(
                                        addrs, txn_bytes
                                    ),
                                    sum(s for _, s in addrs),
                                )
                    else:
                        ntxn = self._op_transactions(op)
                        nbytes = bytes_touched(
                            nbytes=op.nbytes, addrs=op.addrs
                        )
                        ranges = (
                            list(op.addrs)
                            if op.addrs is not None
                            else [(op.addr, op.nbytes)]
                        )
                        done = l2.access_write(
                            memsys, t_issue, ranges, ntxn, nbytes
                        )
                    if uses_texture:
                        self._mark_texture_dirty(op)
                    s_gwrite += done - t_issue
                    if observed:
                        self._observe(warp, "global_write", t_issue, done)
                    seq += 1
                    item = pushpop(heap, (done, seq, warp))

                elif ty is AtomicShared:
                    n_ashared += 1
                    if n_ashared == 1:
                        stall.setdefault("shared_atomic", 0.0)
                    done = warp.block.shared_atomics.request(op.addr, t_issue)
                    warp.inbox = op.old
                    s_ashared += done - t_issue
                    if observed:
                        self._observe(warp, "shared_atomic", t_issue, done)
                    seq += 1
                    item = pushpop(heap, (done, seq, warp))

                elif ty is GlobalRead:
                    n_greads += 1
                    if n_greads == 1:
                        stall.setdefault("global_read", 0.0)
                    if l2 is None:
                        ntxn = op.ntxn
                        if ntxn is not None:
                            done = mem_read(t_issue, ntxn, op.nbytes)
                        else:
                            addrs = op.addrs
                            if addrs is None:
                                nb = op.nbytes
                                done = mem_read(
                                    t_issue,
                                    contiguous_transactions(
                                        op.addr, nb, txn_bytes
                                    ),
                                    nb,
                                )
                            else:
                                done = mem_read(
                                    t_issue,
                                    scattered_transactions_cached(
                                        addrs, txn_bytes
                                    ),
                                    sum(s for _, s in addrs),
                                )
                    else:
                        ranges = (
                            list(op.addrs)
                            if op.addrs is not None
                            else [(op.addr, op.nbytes)]
                        )
                        done = l2.access_read(memsys, t_issue, ranges)
                    s_gread += done - t_issue
                    if observed:
                        self._observe(warp, "global_read", t_issue, done)
                    seq += 1
                    item = pushpop(heap, (done, seq, warp))

                else:
                    n_cold += 1
                    self._seq = seq
                    self._now = now
                    self._execute_cold(warp, op, t_issue)
                    seq = self._seq
        finally:
            self._seq = seq
            self._now = now
            st.instructions += (
                n_cold + n_shared + n_polls + n_compute
                + n_gwrites + n_greads + n_ashared
            )
            st.shared_ops += n_shared
            st.polls += n_polls
            st.compute_ops += n_compute
            st.global_writes += n_gwrites
            st.global_reads += n_greads
            st.atomics_shared += n_ashared
            if n_shared:
                stall["shared"] += s_shared
            if n_polls:
                stall["poll"] += s_poll
            if n_compute:
                stall["compute"] += s_compute
            if n_gwrites:
                stall["global_write"] += s_gwrite
            if n_greads:
                stall["global_read"] += s_gread
            if n_ashared:
                stall["shared_atomic"] += s_ashared
            if gc_was_enabled:
                gc.enable()

        if self._blocks_live:
            msg = (
                f"{self._blocks_live} block(s) still resident with no runnable "
                f"warp (barrier divergence or unsatisfiable wait)"
            )
            if checker is not None:
                checker.note_deadlock(msg)
            raise DeadlockError(msg)

    def _retire_warp(self, warp: _Warp, t: float) -> None:
        warp.done = True
        blk = warp.block
        blk.warps_done += 1
        if self.checker is not None:
            self.checker.warp_retired(warp)
        # A finished warp no longer participates in barriers; if the
        # remaining warps are all parked at the barrier, release them.
        self._maybe_release_barrier(blk, t)
        if blk.warps_done == blk.n_warps:
            self._blocks_live -= 1
            blk.mp.active_blocks -= 1
            self._start_block(blk.mp, at=t)

    # ------------------------------------------------------------------
    # Instruction semantics off the hot path, and observer hooks
    # ------------------------------------------------------------------

    def _observe(self, warp: _Warp, category: str, start: float, end: float
                 ) -> None:
        """Observer calls for one hot instruction, whose stall the loop
        has already charged: progress for the sanitizer's liveness
        monitor, the interval for the timeline."""
        if self.checker is not None:
            self.checker.op_progress(warp)
        if self.timeline is not None:
            self.timeline.record(
                warp.block.block_id, warp.warp_id, category, start, end
            )

    def _execute_cold(self, warp: _Warp, op: Op, t_issue: float) -> None:
        """The rare instructions, with their observer hooks.

        ``instructions`` has already been counted by the caller; stalls
        are charged through :meth:`_note`.
        """
        st = self.stats
        tm = self.timing
        checker = self.checker
        if checker is not None:
            checker.op_progress(warp)
        ty = type(op)

        if ty is Barrier:
            st.barriers += 1
            blk = warp.block
            blk.barrier_waiting.append(warp)
            warp.barrier_arrived_at = t_issue
            if checker is not None:
                checker.barrier_wait(warp)
            self._maybe_release_barrier(blk, t_issue)

        elif ty is Fence:
            st.fences += 1
            self._push(t_issue + tm.fence_cycles, warp)

        elif ty is AtomicGlobal:
            st.atomics_global += 1
            done = self.atomics.request(op.addr, t_issue)
            # Atomics also occupy crossbar/DRAM bandwidth.
            self.memsys.request_write(t_issue, 1, 4)
            if checker is not None:
                checker.atomic_global(op.addr, op.old, op.delta)
            warp.inbox = op.old
            self._note(warp, "atomic", t_issue, done)
            self._push(done, warp)

        elif ty is AtomicGlobalMulti:
            st.atomics_global += len(op.addrs)
            done = t_issue
            for addr in op.addrs:
                done = max(done, self.atomics.request(addr, t_issue))
            self.memsys.request_write(t_issue, len(op.addrs), 4 * len(op.addrs))
            if checker is not None:
                deltas = op.deltas or (0,) * len(op.addrs)
                for addr, old, delta in zip(op.addrs, op.olds, deltas):
                    checker.atomic_global(addr, old, delta)
            warp.inbox = tuple(op.olds)
            self._note(warp, "atomic", t_issue, done)
            self._push(done, warp)

        elif ty is TextureRead:
            st.texture_reads += 1
            tex = warp.block.mp.texture
            if tex is None:
                raise LaunchError(
                    "TextureRead in a launch without uses_texture=True"
                )
            hit_lines = miss_lines = 0
            for addr, size in op.addrs:
                h, m = tex.access(addr, size)
                hit_lines += h
                miss_lines += m
            if miss_lines:
                fill_bytes = miss_lines * self.config.texture_line_bytes
                ntxn = max(1, fill_bytes // tm.txn_bytes)
                done = self.memsys.request_read(t_issue, ntxn, fill_bytes)
                done = max(done, t_issue + tm.texture_miss_latency)
            else:
                done = t_issue + tm.texture_hit_latency
            self._note(warp, "texture", t_issue, done)
            self._push(done, warp)

        elif ty is Nop:
            self._push(t_issue, warp)

        else:  # pragma: no cover - defensive
            raise KernelFault(f"unknown instruction {op!r}")

    def _op_transactions(self, op: GlobalWrite) -> int:
        """Transaction count for a global write (memoized analysis)."""
        if op.ntxn is not None:
            return op.ntxn
        if op.addrs is not None:
            return scattered_transactions_cached(
                op.addrs, self.timing.txn_bytes
            )
        return contiguous_transactions(
            op.addr, op.nbytes, self.timing.txn_bytes
        )

    def _note(self, warp: _Warp, category: str, start: float, end: float
              ) -> None:
        self.stats.stall(category, end - start)
        if self.timeline is not None:
            self.timeline.record(
                warp.block.block_id, warp.warp_id, category, start, end
            )

    def _maybe_release_barrier(self, blk: _BlockRt, t: float) -> None:
        live = blk.n_warps - blk.warps_done
        if live and len(blk.barrier_waiting) == live:
            release = t + self.timing.barrier_cycles
            if self.checker is not None:
                self.checker.barrier_release(blk, blk.barrier_waiting)
            for w in blk.barrier_waiting:
                self._note(w, "barrier", w.barrier_arrived_at, release)
                self._push(release, w)
            blk.barrier_waiting.clear()

    def _mark_texture_dirty(self, op: GlobalWrite) -> None:
        ranges: Iterable[tuple[int, int]]
        if op.addrs is not None:
            ranges = op.addrs
        else:
            ranges = ((op.addr, op.nbytes),)
        for mp in self.mps:
            if mp.texture is not None:
                for addr, size in ranges:
                    mp.texture.note_global_write(addr, size)

    # ------------------------------------------------------------------

    def _harvest_counters(self) -> None:
        st = self.stats
        st.global_transactions = self.memsys.transactions
        st.global_bytes = self.memsys.bytes_moved
        st.memory_queue_cycles = self.memsys.queue_cycles
        st.atomic_conflicts = self.atomics.conflicts
        st.atomic_queue_cycles = self.atomics.queue_cycles
        for mp in self.mps:
            if mp.texture is not None:
                st.texture_hits += mp.texture.hits
                st.texture_misses += mp.texture.misses
        if self.l2 is not None:
            st.extra["l2_hits"] = self.l2.hits
            st.extra["l2_misses"] = self.l2.misses
        hits, misses = _analysis_totals()
        st.analysis_cache_hits = hits - self._cache_base[0]
        st.analysis_cache_misses = misses - self._cache_base[1]
