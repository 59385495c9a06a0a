"""Hierarchical result collection and overflow handling (Section III-D).

Two collection paths exist:

* **Staged path** (modes SO/SIO): results emitted by a warp in one
  generation step form a *warp result*.  Its structured portion (one
  key-index and one value-index entry per record) is appended from the
  **left** end of the shared-memory output area; its unstructured
  key/value bytes are reserved from the **right** end (the
  double-ended stack of Figure 4(b)).  The first lane performs the two
  reservations atomically (shared-memory atomics); the lanes then copy
  their records in parallel, offsets coming from an in-warp prefix sum
  (no sync needed: lockstep).  When a new warp result does not fit,
  the block *flushes*: one leader reserves global space for **all**
  collected warp results with one set of global atomics, then every
  warp drains warp results cooperatively with coalesced writes — this
  amortisation is precisely why output staging relieves the atomic
  contention of the direct path.

* **Direct path** (modes G/GT/SI): each warp writes its own results
  straight to global memory.  To avoid per-thread atomics, "only the
  first thread of each warp atomically increases the output size in
  global memory by the total size of all output records from its warp,
  calculated through in-warp prefix summing" (Section IV-C); the
  reserved range is broadcast through shared memory.  The three global
  tail counters remain the serialisation point — the bottleneck the
  paper measures for Word Count and String Match.

The overflow handshake is the paper's intra-block wait-signal
(Section III-C): CUDA's only barrier, ``__syncthreads()``, cannot
serve warps on divergent compute/helper paths, so the warps meet
through three control words in shared memory.  A compute warp whose
result does not fit raises ``OVF``; helper warps (and compute warps
that finished early) poll it in :func:`wait_loop` at
:func:`poll_interval`, the yield-vs-spin knob of Figure 8; every warp
then counts itself in on ``ARRIVE``, and the last one out of the flush
bumps ``EPOCH`` to release the others.

Implementation note on atomicity: the simulator executes kernel code
*eagerly between yields*, so any check-then-reserve sequence written
without an intervening ``yield`` is atomic in simulated time; the
matching instruction descriptors are yielded immediately afterwards to
charge the cost.  Interleaving across warps can only happen at yield
points, which is where the protocol below is (and must be) re-entrant.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from ..errors import FrameworkError
from ..gpu.instructions import AtomicShared, GlobalWrite, SharedRead, SharedWrite
from ..gpu.kernel import WarpCtx
from .layout import OUT_DIR_PER_RECORD, WARP_RESULT_HEADER, SmemLayout
from .prefix_sum import _scan_ops, exclusive_scan

# Frozen op singletons for the fixed-size flag/broadcast charges on the
# collection hot path (yielding a shared instance skips a dataclass
# construction per flag write).
_SW_FLAG = SharedWrite(nbytes=4)
_SW_EPOCH = SharedWrite(nbytes=36)
_SW_BCAST = SharedWrite(nbytes=12)
_SR_BCAST = SharedRead(nbytes=12)
from .records import OutputBuffers

#: One output-directory entry: ``(key_off, key_len, val_off, val_len)``.
_DIR4 = struct.Struct("<4I")
_DIR2 = struct.Struct("<2I")

#: Whole-directory packers, one per record count: packing a warp
#: result's directory in a single C call beats per-record pack+join.
_DIR_STRUCTS: dict[int, struct.Struct] = {}


def _dir_struct(nwords: int) -> struct.Struct:
    st = _DIR_STRUCTS.get(nwords)
    if st is None:
        st = struct.Struct(f"<{nwords}I")
        _DIR_STRUCTS[nwords] = st
    return st

# Control-word offsets inside the layout's flags area.
OVF = 0  # 0 = none, 1 = overflow flush, 2 = final flush
ARRIVE = 4
RESERVE_READY = 8
WR_TAKEN = 12
DONE = 16
EPOCH = 20
COMPUTE_DONE = 24
LEFT_USED = 28
RIGHT_USED = 32
WR_COUNT = 36


@dataclass(slots=True)
class WarpResult:
    """One warp's simultaneously-generated records, resident in smem."""

    warp_id: int
    keys: list[bytes]
    vals: list[bytes]
    key_bytes: int
    val_bytes: int
    #: Shared-memory offsets of this result's data (right end) and
    #: directory entries (left end).
    data_off: int = 0
    dir_off: int = 0
    #: Derived layout sizes, precomputed once at construction (these
    #: are read several times per result on the collection hot path).
    count: int = field(init=False, default=0)
    left_bytes: int = field(init=False, default=0)
    right_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.count = len(self.keys)
        self.left_bytes = WARP_RESULT_HEADER + OUT_DIR_PER_RECORD * self.count
        self.right_bytes = self.key_bytes + self.val_bytes


@dataclass
class CollectorState:
    """Python-side mirror of the output area (authoritative bytes live
    in shared memory; this tracks structure for flushing)."""

    layout: SmemLayout
    out: OutputBuffers
    n_warps: int
    n_compute: int
    yield_sync: bool = True
    warp_results: list[WarpResult] = field(default_factory=list)
    #: Per-flush reservation offsets assigned by the leader.
    flush_offsets: list[tuple[int, int, int]] = field(default_factory=list)
    flushes: int = 0
    overflow_flushes: int = 0


def init_collector(ctx: WarpCtx, state: CollectorState) -> None:
    """Zero the control words (called by the leader warp, untimed setup)."""
    smem = ctx.smem
    base = state.layout.flags_off
    for off in (OVF, ARRIVE, RESERVE_READY, WR_TAKEN, DONE, COMPUTE_DONE,
                LEFT_USED, RIGHT_USED, WR_COUNT):
        smem.write_u32(base + off, 0)
    ck = ctx.checker
    if ck is not None:
        # The whole flags area (per-warp flag words + control words)
        # is synchronisation state, not data, for the race detector.
        ck.declare_sync_range(
            ctx.block_id, base, state.layout.working_off - base
        )
        ck.collector_opened(ctx, state)


# ----------------------------------------------------------------------
# Staged path (SO / SIO)
# ----------------------------------------------------------------------


def collect_warp_result(
    ctx: WarpCtx,
    state: CollectorState,
    keys: list[bytes],
    vals: list[bytes],
):
    """Append one warp result to the output area, flushing on overflow."""
    if not keys:
        return
    layout = state.layout
    base = layout.flags_off
    smem = ctx.smem

    key_sizes = [len(k) for k in keys]
    val_sizes = [len(v) for v in vals]
    # One warp scan over both size arrays (16-bit sizes pack into one
    # 32-bit word, so a single Hillis-Steele pass serves both).
    for op in _scan_ops(ctx.timing.issue_cycles):
        yield op
    kpre, ktot = exclusive_scan(key_sizes)
    vpre, vtot = exclusive_scan(val_sizes)
    wr = WarpResult(
        warp_id=ctx.warp_id, keys=keys, vals=vals, key_bytes=ktot, val_bytes=vtot
    )
    need = wr.left_bytes + wr.right_bytes
    if need > layout.output_bytes:
        raise FrameworkError(
            f"one warp result ({need} B) exceeds the whole output area "
            f"({layout.output_bytes} B); lower the block size or io_ratio"
        )

    while True:
        if smem.read_u32(base + OVF) != 0:
            # A flush is pending: join it, then retry.
            yield from participate_in_flush(ctx, state)
            continue
        left = smem.read_u32(base + LEFT_USED)
        right = smem.read_u32(base + RIGHT_USED)
        if left + right + need <= layout.output_bytes:
            # Reserve *eagerly* (atomic w.r.t. other warps: no yield
            # between check and reserve), then charge the first lane's
            # two shared-memory atomics.
            old_left = smem.atomic_add_u32(base + LEFT_USED, wr.left_bytes)
            old_right = smem.atomic_add_u32(base + RIGHT_USED, wr.right_bytes)
            smem.atomic_add_u32(base + WR_COUNT, 1)
            ck = ctx.checker
            if ck is not None:
                # Same eager step as the reserve: the cursors still
                # reflect exactly this reservation.
                ck.collector_reserved(ctx, state, wr, old_left, old_right)
            yield AtomicShared(addr=base + LEFT_USED, old=old_left)
            yield AtomicShared(addr=base + RIGHT_USED, old=old_right)
            break
        # Overflow: raise the flag in the same eager step as the
        # failed check, then participate in the flush.
        state.overflow_flushes += 1
        ctx.count("overflow_flushes")
        ctx.mark("overflow_flush", epoch=state.flushes)
        smem.write_u32(base + OVF, 1)
        yield from ctx.fence_block()
        yield _SW_FLAG
        yield from participate_in_flush(ctx, state)

    # Write the warp result into the double-ended stack.
    wr.dir_off = layout.output_off + old_left
    wr.data_off = (
        layout.output_off + layout.output_bytes - old_right - wr.right_bytes
    )
    # Batched functional writes: one contiguous data blob and one
    # directory blob (byte coverage identical to per-record writes).
    smem.write(wr.data_off, b"".join(chain.from_iterable(zip(keys, vals))))
    smem.write_u32(wr.dir_off, wr.count)
    smem.write_u32(wr.dir_off + 4, wr.right_bytes)
    dir_blob = _dir_struct(4 * len(keys)).pack(
        *chain.from_iterable(zip(kpre, key_sizes, vpre, val_sizes))
    )
    smem.write(wr.dir_off + WARP_RESULT_HEADER, dir_blob)
    # Parallel copy by the warp's lanes: one shared write step for the
    # data, one for the directory entries.
    yield SharedWrite(nbytes=wr.right_bytes)
    yield SharedWrite(nbytes=WARP_RESULT_HEADER + OUT_DIR_PER_RECORD * wr.count)
    state.warp_results.append(wr)


def request_final_flush(ctx: WarpCtx, state: CollectorState):
    """Called by the last compute warp once all rounds have finished."""
    base = state.layout.flags_off
    smem = ctx.smem
    while smem.read_u32(base + OVF) != 0:
        yield from participate_in_flush(ctx, state)
    ctx.mark("final_flush", epoch=state.flushes)
    smem.write_u32(base + OVF, 2)  # eager: same step as the ==0 check
    yield from ctx.fence_block()
    yield _SW_FLAG
    yield from participate_in_flush(ctx, state)


def poll_interval(ctx: WarpCtx, yield_sync: bool) -> float:
    """Probe spacing for a busy-wait loop under the chosen discipline.

    The paper's *yield* is a dummy global read+write that swaps the
    polling warp out for about a memory round-trip, freeing issue
    slots for compute warps; here it widens the probe spacing from
    ``poll_interval_spin`` to ``poll_interval_yield`` (Figure 8).
    """
    t = ctx.timing
    return t.poll_interval_yield if yield_sync else t.poll_interval_spin


def wait_loop(ctx: WarpCtx, state: CollectorState):
    """Helper warps (and early-finished compute warps) park here.

    Polls the overflow flag — with the yield discipline measured in
    Figure 8 — joining every flush until the final one completes.
    """
    base = state.layout.flags_off
    smem = ctx.smem
    interval = poll_interval(ctx, state.yield_sync)
    while True:
        yield from ctx.poll(smem.flag_checker(base + OVF, 0, negate=True), interval)
        final = smem.read_u32(base + OVF) == 2
        yield from participate_in_flush(ctx, state)
        if final:
            return


def participate_in_flush(ctx: WarpCtx, state: CollectorState):
    """The block-cooperative stage-out step (Figure 3, Section III-D).

    All ``n_warps`` warps pass through here once per flush epoch.  The
    *last* warp to arrive acts as the leader (timing-equivalent to the
    paper's "first thread of the block", which also runs only once all
    warps reached the flush): it totals the collected warp results,
    advances the three global tail counters with one atomic each, and
    publishes the reserved bases.  Warps then drain warp results via a
    shared-memory ticket counter, each flushed with coalesced global
    writes; the last warp to finish resets the output area and bumps
    the epoch.
    """
    layout = state.layout
    base = layout.flags_off
    smem = ctx.smem
    out = state.out
    epoch0 = smem.read_u32(base + EPOCH)

    my = smem.atomic_add_u32(base + ARRIVE, 1)
    yield AtomicShared(addr=base + ARRIVE, old=my)
    if my == state.n_warps - 1:
        # Leader: reserve global space for every collected warp result.
        wrs = state.warp_results
        yield from ctx.compute(4 * len(wrs) + 8)
        ktot = sum(w.key_bytes for w in wrs)
        vtot = sum(w.val_bytes for w in wrs)
        rtot = sum(w.count for w in wrs)
        kbase, vbase, rbase = yield from ctx.atomic_add_global_multi(
            [(out.key_tail, ktot), (out.val_tail, vtot), (out.rec_count, rtot)]
        )
        out.check_reservation(kbase + ktot, vbase + vtot, rbase + rtot)
        ck = ctx.checker
        if ck is not None:
            ck.collector_flush_reserved(ctx, state, wrs, ktot, vtot, rtot)
        offs = []
        ko, vo, ro = kbase, vbase, rbase
        for w in wrs:
            offs.append((ko, vo, ro))
            ko += w.key_bytes
            vo += w.val_bytes
            ro += w.count
        state.flush_offsets = offs
        yield from ctx.fence_block()
        smem.write_u32(base + RESERVE_READY, 1)
        yield _SW_FLAG
    else:
        yield from ctx.poll(
            smem.flag_checker(base + RESERVE_READY, 1),
            ctx.timing.poll_interval_spin,
        )

    # Drain warp results cooperatively (one ticket per warp result).
    while True:
        idx = smem.atomic_add_u32(base + WR_TAKEN, 1)
        yield AtomicShared(addr=base + WR_TAKEN, old=idx)
        if idx >= len(state.warp_results):
            break
        yield from _flush_one(ctx, state, idx)

    d = smem.atomic_add_u32(base + DONE, 1)
    yield AtomicShared(addr=base + DONE, old=d)
    if d == state.n_warps - 1:
        # Last finisher: reset the output area for the next epoch.
        state.warp_results.clear()
        state.flush_offsets = []
        state.flushes += 1
        ctx.count("flushes")
        ctx.mark("flush_done", epoch=state.flushes)
        for off in (OVF, ARRIVE, RESERVE_READY, WR_TAKEN, DONE,
                    LEFT_USED, RIGHT_USED, WR_COUNT):
            smem.write_u32(base + off, 0)
        smem.write_u32(base + EPOCH, epoch0 + 1)
        ck = ctx.checker
        if ck is not None:
            ck.collector_flush_reset(ctx, state)
        yield _SW_EPOCH
        yield from ctx.fence_block()
    else:
        yield from ctx.poll(
            smem.flag_checker(base + EPOCH, epoch0, negate=True),
            ctx.timing.poll_interval_spin,
        )


def _flush_one(ctx: WarpCtx, state: CollectorState, idx: int):
    """Copy one warp result from shared to global memory, coalesced."""
    wr = state.warp_results[idx]
    kbase, vbase, rbase = state.flush_offsets[idx]
    out = state.out
    ck = ctx.checker
    if ck is not None:
        ck.collector_flush_one(ctx, state, wr, kbase, vbase, rbase)
    # Read the warp result out of shared memory (data + directory)...
    yield SharedRead(nbytes=wr.right_bytes + OUT_DIR_PER_RECORD * wr.count)
    payload = ctx.smem.read(wr.data_off, wr.right_bytes)
    kblob = b"".join(wr.keys)
    vblob = b"".join(wr.vals)
    if len(payload) != len(kblob) + len(vblob):
        raise FrameworkError("output area corruption: warp result size mismatch")
    # ...and write its blobs contiguously (coalesced within one warp
    # result, as Section III-B notes).
    gmem = ctx.gmem
    if kblob:
        gmem.write(out.keys_addr + kbase, kblob)
        yield GlobalWrite(addr=out.keys_addr + kbase, nbytes=len(kblob))
    if vblob:
        gmem.write(out.vals_addr + vbase, vblob)
        yield GlobalWrite(addr=out.vals_addr + vbase, nbytes=len(vblob))
    klens = list(map(len, wr.keys))
    vlens = list(map(len, wr.vals))
    koffs = list(accumulate(klens[:-1], initial=kbase))
    voffs = list(accumulate(vlens[:-1], initial=vbase))
    st2n = _dir_struct(2 * len(klens))
    kdir = st2n.pack(*chain.from_iterable(zip(koffs, klens)))
    vdir = st2n.pack(*chain.from_iterable(zip(voffs, vlens)))
    gmem.write(out.key_dir_addr + 8 * rbase, kdir)
    gmem.write(out.val_dir_addr + 8 * rbase, vdir)
    yield GlobalWrite(addr=out.key_dir_addr + 8 * rbase, nbytes=len(kdir))
    yield GlobalWrite(addr=out.val_dir_addr + 8 * rbase, nbytes=len(vdir))


# ----------------------------------------------------------------------
# Direct path (G / GT / SI)
# ----------------------------------------------------------------------


def direct_emit_warp(
    ctx: WarpCtx,
    out: OutputBuffers,
    keys: list[bytes],
    vals: list[bytes],
):
    """Warp-aggregated direct write to global memory (Section IV-C)."""
    if not keys:
        return
    key_sizes = [len(k) for k in keys]
    val_sizes = [len(v) for v in vals]
    # One warp scan over both size arrays (16-bit sizes pack into one
    # 32-bit word, so a single Hillis-Steele pass serves both).
    for op in _scan_ops(ctx.timing.issue_cycles):
        yield op
    kpre, ktot = exclusive_scan(key_sizes)
    vpre, vtot = exclusive_scan(val_sizes)
    n = len(keys)

    # First lane: the three tail reservations, issued together.
    kbase, vbase, rbase = yield from ctx.atomic_add_global_multi(
        [(out.key_tail, ktot), (out.val_tail, vtot), (out.rec_count, n)]
    )
    out.check_reservation(kbase + ktot, vbase + vtot, rbase + n)
    # Broadcast the bases through shared memory.
    yield _SW_BCAST
    yield _SR_BCAST

    # Lanes store their records; the reserved ranges are contiguous so
    # the stores coalesce within the warp.
    yield from ctx.gwrite(out.keys_addr + kbase, b"".join(keys))
    yield from ctx.gwrite(out.vals_addr + vbase, b"".join(vals))
    kdir = np.zeros(2 * n, dtype="<u4")
    vdir = np.zeros(2 * n, dtype="<u4")
    for i in range(n):
        kdir[2 * i], kdir[2 * i + 1] = kbase + kpre[i], key_sizes[i]
        vdir[2 * i], vdir[2 * i + 1] = vbase + vpre[i], val_sizes[i]
    ctx.gmem.write_u32_array(out.key_dir_addr + 8 * rbase, kdir)
    ctx.gmem.write_u32_array(out.val_dir_addr + 8 * rbase, vdir)
    yield GlobalWrite(addr=out.key_dir_addr + 8 * rbase, nbytes=kdir.nbytes)
    yield GlobalWrite(addr=out.val_dir_addr + 8 * rbase, nbytes=vdir.nbytes)
