"""Kernel launch API and the warp-context object kernels program against.

A *kernel* is a Python generator function with signature::

    def kernel(ctx: WarpCtx, *args):
        ...
        data = yield from ctx.gread(addr, nbytes)      # timed global read
        yield from ctx.compute(10)                      # timed ALU work
        old = yield from ctx.atomic_add_global(a, 42)   # timed atomic
        yield from ctx.barrier()                        # __syncthreads()

One coroutine instance runs per *warp* (32 threads in lockstep), the
granularity the paper reasons at.  Helper methods both perform the
functional effect eagerly (real bytes move) and yield the matching
instruction descriptor so the engine can charge simulated time.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from .banks import conflict_degree_cached
from .config import WARP_SIZE, DeviceConfig
from .engine import Engine, _BlockRt
from .instructions import (
    AtomicGlobal,
    AtomicGlobalMulti,
    AtomicShared,
    Barrier,
    Compute,
    Fence,
    GlobalRead,
    GlobalWrite,
    Op,
    Poll,
    SharedRead,
    SharedWrite,
    TextureRead,
)
from .memory import GlobalMemory, SharedMemory
from .stats import KernelStats

Kernel = Callable[..., Generator[Op, Any, None]]


class WarpCtx:
    """Execution context handed to each warp coroutine."""

    __slots__ = (
        "device",
        "gmem",
        "_blk",
        "warp_id",
        "grid_blocks",
        "threads_per_block",
        "stats",
        "timing",
        "_engine",
    )

    def __init__(
        self,
        device: "Device",
        blk: _BlockRt,
        warp_id: int,
        grid_blocks: int,
        threads_per_block: int,
        stats: KernelStats,
        engine: Engine | None = None,
    ):
        self.device = device
        self.gmem: GlobalMemory = device.gmem
        self._blk = blk
        self.warp_id = warp_id
        self.grid_blocks = grid_blocks
        self.threads_per_block = threads_per_block
        self.stats = stats
        self.timing = device.config.timing
        self._engine = engine

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def block_id(self) -> int:
        return self._blk.block_id

    @property
    def warps_per_block(self) -> int:
        return self._blk.n_warps

    @property
    def smem(self) -> SharedMemory:
        """The block's shared memory (functional state)."""
        return self._blk.smem

    @property
    def block_state(self) -> dict:
        """Python-side per-block bookkeeping shared by the block's warps.

        Framework code keeps convenience mirrors of structures whose
        authoritative timing behaviour is expressed through explicit
        smem instructions; nothing here is ever charged time.
        """
        return self._blk.state

    @property
    def global_warp_id(self) -> int:
        return self.block_id * self.warps_per_block + self.warp_id

    @property
    def checker(self):
        """The launch's sanitizer hooks, or None when unchecked.

        The collector reports semantic events — reservations, flushes,
        its control-word area — through this; plain kernels never
        need it.
        """
        eng = self._engine
        return eng.checker if eng is not None else None

    @property
    def can_elide_gmem_addrs(self) -> bool:
        """Whether replay plans may charge global reads by transaction
        count alone (no per-lane addresses on the descriptor).

        False when an L2 cache or sanitizer is attached — both need
        the real address ranges.
        """
        eng = self._engine
        return eng is not None and eng.l2 is None and eng.checker is None

    @property
    def lane_ids(self) -> range:
        return range(WARP_SIZE)

    # ------------------------------------------------------------------
    # Timed operations (use with ``yield from``)
    # ------------------------------------------------------------------

    def compute(self, cycles: float, lanes: int = WARP_SIZE):
        """ALU work; ``cycles`` is warp-level cost."""
        yield Compute(cycles=cycles, lanes=lanes)

    def gread(self, addr: int, nbytes: int):
        """Cooperative coalesced read of a contiguous range; returns bytes."""
        data = self.gmem.read(addr, nbytes)
        yield GlobalRead(addr=addr, nbytes=nbytes)
        return data

    def gwrite(self, addr: int, data: bytes | bytearray | memoryview):
        """Cooperative coalesced write of a contiguous range."""
        self.gmem.write(addr, data)
        yield GlobalWrite(addr=addr, nbytes=len(data))

    def gread_scattered(self, accesses: Sequence[tuple[int, int]]):
        """Per-lane scattered reads; returns a list of byte strings."""
        datas = [self.gmem.read(a, s) for a, s in accesses]
        yield GlobalRead(addrs=tuple(accesses), lanes=max(1, len(accesses)))
        return datas

    def gwrite_scattered(self, writes: Sequence[tuple[int, bytes]]):
        """Per-lane scattered writes of ``(addr, data)`` pairs."""
        accesses = []
        for addr, data in writes:
            self.gmem.write(addr, data)
            accesses.append((addr, len(data)))
        yield GlobalWrite(addrs=tuple(accesses), lanes=max(1, len(accesses)))

    def gtouch_read(self, accesses: Sequence[tuple[int, int]], lanes: int | None = None):
        """Charge for scattered reads without materialising the bytes.

        Used when replaying an access trace whose data was already
        consumed functionally (e.g. user Map code ran eagerly against
        an :class:`~repro.gpu.accessor.Accessor`).
        """
        yield GlobalRead(addrs=tuple(accesses), lanes=lanes or max(1, len(accesses)))

    def tex_read(self, accesses: Sequence[tuple[int, int]]):
        """Read through the texture path; returns list of byte strings."""
        datas = [self.gmem.read(a, s) for a, s in accesses]
        yield TextureRead(addrs=tuple(accesses), lanes=max(1, len(accesses)))
        return datas

    def tex_touch(self, accesses: Sequence[tuple[int, int]]):
        """Charge texture fetches for an already-consumed access trace."""
        yield TextureRead(addrs=tuple(accesses), lanes=max(1, len(accesses)))

    def sread(self, off: int, nbytes: int, conflict: int = 1):
        data = self.smem.read(off, nbytes)
        yield SharedRead(nbytes=nbytes, conflict=conflict)
        return data

    def swrite(self, off: int, data: bytes | bytearray | memoryview, conflict: int = 1):
        self.smem.write(off, data)
        yield SharedWrite(nbytes=len(data), conflict=conflict)

    def stouch(self, nbytes: int, *, write: bool = False, word_addrs: Sequence[int] | None = None):
        """Charge a shared access without moving functional bytes."""
        conflict = conflict_degree_cached(word_addrs) if word_addrs else 1
        if write:
            yield SharedWrite(nbytes=nbytes, conflict=conflict)
        else:
            yield SharedRead(nbytes=nbytes, conflict=conflict)

    def atomic_add_global(self, addr: int, delta: int):
        """``atomicAdd`` on a 32-bit global word; returns the old value."""
        old = self.gmem.atomic_add_u32(addr, delta)
        result = yield AtomicGlobal(addr=addr, old=old, delta=delta)
        return result

    def atomic_add_global_multi(self, ops: Sequence[tuple[int, int]]):
        """Issue independent ``atomicAdd`` ops to several counters at
        once; returns the tuple of old values.  Completion waits for
        the slowest counter rather than chaining round trips."""
        olds = [self.gmem.atomic_add_u32(addr, delta) for addr, delta in ops]
        result = yield AtomicGlobalMulti(
            addrs=tuple(addr for addr, _ in ops),
            olds=tuple(olds),
            deltas=tuple(delta for _, delta in ops),
        )
        return result

    def atomic_add_shared(self, off: int, delta: int):
        """Intra-block atomic add on a shared-memory word."""
        old = self.smem.atomic_add_u32(off, delta)
        result = yield AtomicShared(addr=off, old=old)
        return result

    def barrier(self):
        """``__syncthreads()`` over the block's live warps."""
        yield Barrier()

    def fence_block(self):
        """``__threadfence_block()``."""
        yield Fence()

    def poll(self, check: Callable[[], bool], interval: float):
        """Busy-wait until ``check()`` holds, probing every ``interval``."""
        yield Poll(check=check, interval=interval)

    def count(self, name: str, inc: int = 1) -> None:
        """Increment a free-form stats counter (not timed)."""
        self.stats.count(name, inc)

    def mark(self, name: str, **attrs) -> None:
        """Record an untimed instant marker into the launch timeline.

        No-op unless the launch was given a timeline, so framework
        code can mark episodes (overflow flush, final flush) without
        affecting timing or untraced runs.
        """
        eng = self._engine
        if eng is not None and eng.timeline is not None:
            eng.timeline.mark(self.block_id, self.warp_id, name,
                              eng.now, attrs or None)


class Device:
    """A simulated GPU: configuration + global memory + launch entry."""

    def __init__(self, config: DeviceConfig | None = None):
        self.config = config or DeviceConfig.gtx280()
        self.gmem = GlobalMemory(self.config.global_mem_bytes)
        #: Optional sanitizer (:class:`repro.check.Sanitizer`); when
        #: set, every launch runs under a fresh per-launch checker.
        self.checker = None

    def launch(
        self,
        kernel: Kernel,
        *,
        grid: int,
        block: int,
        smem_bytes: int = 0,
        args: tuple = (),
        uses_texture: bool = False,
        regs_per_thread: int = 16,
        max_cycles: float = float("inf"),
        timeline=None,
    ) -> KernelStats:
        """Run ``kernel`` over ``grid`` blocks of ``block`` threads.

        Returns the launch's :class:`KernelStats` (including the
        simulated cycle count).  Functional side effects land in
        ``self.gmem``.  Pass a :class:`repro.gpu.timeline.Timeline` as
        ``timeline`` to trace per-warp execution.
        """
        launch_ck = (self.checker.launch_checker()
                     if self.checker is not None else None)
        engine = Engine(self.config, uses_texture=uses_texture,
                        max_cycles=max_cycles, timeline=timeline,
                        checker=launch_ck)
        stats = engine.stats

        def make_warp(blk: _BlockRt, warp_id: int):
            ctx = WarpCtx(self, blk, warp_id, grid, block, stats, engine)
            return kernel(ctx, *args)

        return engine.run(
            grid=grid,
            threads_per_block=block,
            smem_bytes=smem_bytes,
            make_warp=make_warp,
            regs_per_thread=regs_per_thread,
        )
