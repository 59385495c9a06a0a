"""Reduce-phase kernels: thread-level (TR) and block-level (BR).

**TR** (Mars / Hadoop style): each thread owns one distinct key set
and runs the user's sequential Reduce function over its values.  By
definition TR cannot stage input — "it processes a complete key set at
a time, which can be arbitrarily large" (Section IV-C) — so the modes
that matter are G, GT and SO (SI falls back to G, SIO to SO).

**BR** (Catanzaro style): a whole block reduces one key set in
parallel — each thread accumulates a strided subset of the values,
then a tree reduction combines the per-thread partials through shared
memory.  GT is impossible (in-place updates break texture coherence);
SI stages the value array into the shared-memory input area chunk by
chunk, which is where KMeans' wide vectors gain their 2.25x
(Section IV-E: with G "data accessed for a half-warp at a time span
across several 128-byte segments").

Output collection reuses :mod:`repro.framework.collector`: direct
warp-aggregated atomics for G/GT/SI, the staged output area for
SO/SIO.  For BR the emission is one record per key set, so SO staging
is pure synchronisation overhead — reproducing the paper's observation
that "SO ... brings no benefit due to the high input-to-output ratio".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _functools_reduce
from itertools import zip_longest
from math import ceil

import numpy as np

from ..errors import FrameworkError
from ..gpu.accessor import Accessor, AccessTrace
from ..gpu.banks import conflict_degree_cached
from ..gpu.coalescing import scattered_transactions
from ..gpu.config import WARP_SIZE
from ..gpu.instructions import (
    AtomicShared,
    Compute,
    GlobalRead,
    SharedRead,
    SharedWrite,
)
from ..gpu.kernel import Device, WarpCtx
from ..gpu.stats import KernelStats
from .api import MapReduceSpec
from .collector import (
    COMPUTE_DONE,
    CollectorState,
    collect_warp_result,
    direct_emit_warp,
    init_collector,
    participate_in_flush,
    request_final_flush,
    wait_loop,
)
from .layout import SmemLayout, plan_layout
from .map_engine import chunk_steps, dir_read_op
from .modes import MemoryMode, ReduceStrategy, effective_reduce_mode
from .partition import partition_warps
from .records import DIR_ENTRY, OutputBuffers
from .shuffle import GroupedDeviceSet
from .staging import Tile, plan_tiles_unstaged


@dataclass
class ReduceRuntime:
    """Read-only state shared by every block of a Reduce launch."""

    spec: MapReduceSpec
    strategy: ReduceStrategy
    mode: MemoryMode  # already passed through effective_reduce_mode
    layout: SmemLayout
    grouped: GroupedDeviceSet
    out: OutputBuffers
    tiles: list[Tile]
    grid: int
    yield_sync: bool = True
    const_data: bytes | None = None
    const_addr: int = 0


def build_reduce_runtime(
    device: Device,
    spec: MapReduceSpec,
    mode: MemoryMode,
    strategy: ReduceStrategy,
    grouped: GroupedDeviceSet,
    *,
    threads_per_block: int,
    yield_sync: bool = True,
) -> ReduceRuntime:
    spec.validate()
    if strategy is ReduceStrategy.TR and spec.reduce_record is None:
        raise FrameworkError(f"workload {spec.name} has no TR reduce function")
    if strategy is ReduceStrategy.BR and spec.combine is None:
        raise FrameworkError(f"workload {spec.name} has no BR combine function")
    eff = effective_reduce_mode(mode, strategy)
    cfg = device.config
    layout = plan_layout(
        smem_budget=cfg.shared_mem_per_mp,
        threads_per_block=threads_per_block,
        mode=eff,
        io_ratio=spec.io_ratio,
        working_bytes_per_thread=spec.working_bytes_per_thread,
    )
    payload = int(
        grouped.key_lens.sum() + grouped.val_lens.sum()
    ) if grouped.n_groups else 0
    kcap, vcap, rcap = spec.output_capacity(
        None, payload=payload, count=max(1, grouped.n_groups)
    )
    out = OutputBuffers.allocate(
        device.gmem,
        key_capacity=kcap,
        val_capacity=vcap,
        record_capacity=rcap,
        label=f"red_out.{spec.name}.{eff.value}.{strategy.value}",
    )
    const_addr = 0
    if spec.const_bytes:
        const_addr = device.gmem.alloc(
            len(spec.const_bytes), f"red_const.{spec.name}.{eff.value}.{strategy.value}"
        )
        device.gmem.write(const_addr, spec.const_bytes)

    if strategy is ReduceStrategy.TR:
        tiles = plan_tiles_unstaged(grouped.n_groups, threads_per_block)
        work_units = len(tiles)
    else:
        tiles = [Tile(g, 1) for g in range(grouped.n_groups)]
        work_units = grouped.n_groups
    occ = cfg.blocks_per_mp(threads_per_block, layout.smem_bytes)
    if occ == 0:
        raise FrameworkError("planned reduce layout does not fit on an MP")
    grid = max(1, min(work_units, cfg.mp_count * occ))
    return ReduceRuntime(
        spec=spec,
        strategy=strategy,
        mode=eff,
        layout=layout,
        grouped=grouped,
        out=out,
        tiles=tiles,
        grid=grid,
        yield_sync=yield_sync,
        const_data=spec.const_bytes,
        const_addr=const_addr,
    )


def launch_reduce(device: Device, rt: ReduceRuntime, *,
                  max_cycles: float = float("inf"), timeline=None) -> KernelStats:
    if rt.grouped.n_groups == 0:
        return KernelStats()
    kernel = reduce_tr_kernel if rt.strategy is ReduceStrategy.TR else reduce_br_kernel
    return device.launch(
        kernel,
        grid=rt.grid,
        block=rt.layout.threads_per_block,
        smem_bytes=rt.layout.smem_bytes,
        args=(rt,),
        uses_texture=rt.mode.uses_texture,
        max_cycles=max_cycles,
        timeline=timeline,
    )


# ----------------------------------------------------------------------
# Thread-level reduction
# ----------------------------------------------------------------------


def reduce_tr_kernel(ctx: WarpCtx, rt: ReduceRuntime):
    """One warp of the TR kernel: 32 key sets per round per warp."""
    nw = ctx.warps_per_block
    bs = ctx.block_state
    for t_i in range(ctx.block_id, len(rt.tiles), rt.grid):
        tile = rt.tiles[t_i]
        part = partition_warps(n_warps=nw, concurrency=tile.count, mode=rt.mode)
        if rt.mode.stages_output:
            if ctx.warp_id == 0:
                cs = CollectorState(
                    layout=rt.layout,
                    out=rt.out,
                    n_warps=nw,
                    n_compute=len(part.compute_warps),
                    yield_sync=rt.yield_sync,
                )
                init_collector(ctx, cs)
                bs["collector"] = cs
            yield from ctx.barrier()
            cs = bs["collector"]
            if ctx.warp_id in part.compute_warps:
                yield from _tr_rounds(ctx, rt, tile, part, cs)
                done = ctx.smem.atomic_add_u32(rt.layout.flags_off + COMPUTE_DONE, 1)
                yield AtomicShared(addr=rt.layout.flags_off + COMPUTE_DONE, old=done)
                if done == len(part.compute_warps) - 1:
                    yield from request_final_flush(ctx, cs)
                else:
                    yield from wait_loop(ctx, cs)
            else:
                yield from wait_loop(ctx, cs)
            yield from ctx.barrier()
        else:
            if ctx.warp_id in part.compute_warps:
                yield from _tr_rounds(ctx, rt, tile, part, None)
            yield from ctx.barrier()


def _tr_rounds(ctx: WarpCtx, rt: ReduceRuntime, tile: Tile, part,
               cs: CollectorState | None):
    spec = rt.spec
    grp = rt.grouped
    nc = len(part.compute_warps)
    my = part.compute_warps.index(ctx.warp_id)
    r = 0
    while True:
        base_g = tile.start + (r * nc + my) * WARP_SIZE
        if base_g >= tile.end:
            break
        gs = list(range(base_g, min(base_g + WARP_SIZE, tile.end)))

        # Directory reads: key dir + group dir per lane.
        if not rt.mode.uses_texture and ctx.can_elide_gmem_addrs:
            yield dir_read_op(ctx, grp.key_dir_addr, gs[0], len(gs))
            yield dir_read_op(ctx, grp.group_dir_addr, gs[0], len(gs))
        else:
            dir_acc = [(grp.key_dir_addr + DIR_ENTRY * g, DIR_ENTRY) for g in gs]
            grp_acc = [(grp.group_dir_addr + DIR_ENTRY * g, DIR_ENTRY) for g in gs]
            if rt.mode.uses_texture:
                yield from ctx.tex_touch(dir_acc)
                yield from ctx.tex_touch(grp_acc)
            else:
                yield from ctx.gtouch_read(dir_acc)
                yield from ctx.gtouch_read(grp_acc)

        # Run the user Reduce eagerly, collecting per-lane access streams.
        key_offs, _ = grp.key_columns()
        group_starts, _ = grp.group_columns()
        streams: list[list[tuple[int, int]]] = []
        emissions: list[list[tuple[bytes, bytes]]] = []
        for g in gs:
            key_acc = Accessor(grp.group_key(g))
            geom = grp.group_value_geometry(g)
            if geom:
                # One bounds-checked read covering the group's value
                # span, sliced per value (values are laid out in group
                # order by the shuffle).
                a0 = geom[0][0]
                span = geom[-1][0] + geom[-1][1] - a0
                blob = grp.gmem.read(a0, span)
                val_accs = [
                    Accessor(blob[a - a0:a - a0 + ln]) for a, ln in geom
                ]
            else:
                val_accs = []
            const_acc = Accessor(rt.const_data) if rt.const_data else None
            lane_out: list[tuple[bytes, bytes]] = []

            def emit(k: bytes, v: bytes, _o=lane_out) -> None:
                _o.append((bytes(k), bytes(v)))

            spec.reduce_record(key_acc, val_accs, emit, const_acc)

            stream: list[tuple[int, int]] = []
            kbase = grp.keys_addr + key_offs[g]
            stream += [(kbase + 4 * w, 4) for w in key_acc.trace.words]
            # Per-value directory entries are read while iterating.
            vstart = group_starts[g]
            for j, (acc, (a, _ln)) in enumerate(zip(val_accs, geom)):
                stream.append((grp.val_dir_addr + DIR_ENTRY * (vstart + j), DIR_ENTRY))
                stream += [(a + 4 * w, 4) for w in acc.trace.words]
            if const_acc is not None:
                stream += [
                    (rt.const_addr + 4 * w, 4) for w in const_acc.trace.words
                ]
            streams.append(stream)
            emissions.append(lane_out)

        # Lockstep replay of the lane streams, MLP-chunked.

        n_steps = max(map(len, streams), default=0)
        # Fused lockstep transpose + MLP chunking: chunk ``c`` merges
        # steps [c*mlp, (c+1)*mlp), lane order within a step following
        # stream order — element-for-element what
        # ``chunk_steps(transpose(streams), mlp)`` produced, without
        # materialising the intermediate per-step lists.  Finished
        # streams are dropped as they end (keeping stream order), and
        # once one lane is left its chunks are plain slices.
        mlp = max(1, ctx.timing.memory_parallelism)
        live = [s for s in streams if s]
        shortest = min(map(len, live), default=0)
        chunks = []
        for j0 in range(0, n_steps, mlp):
            if len(live) == 1:
                s = live[0]
                chunks += [s[j:j + mlp] for j in range(j0, n_steps, mlp)]
                break
            chunk = []
            for j in range(j0, min(j0 + mlp, n_steps)):
                if j == shortest:
                    live = [s for s in live if len(s) > j]
                    shortest = min(map(len, live))
                chunk += [s[j] for s in live]
            chunks.append(chunk)
        if not rt.mode.uses_texture and ctx.can_elide_gmem_addrs:
            # Address-elided replay: transaction counts come from the
            # coalescing analysis; the engine charges the op without
            # re-walking the address list.  Deliberately uncached:
            # group-value addresses are unique per round (1 hit /
            # ~5400 lookups on wordcount-medium), so the memo key costs
            # more than it saves here.  The repeating patterns of this
            # phase — the directory reads — stay memoized via
            # dir_read_op above.
            seg = ctx.timing.txn_bytes
            for step in chunks:
                yield GlobalRead(
                    nbytes=sum(sz for _, sz in step),
                    ntxn=scattered_transactions(step, seg),
                    lanes=max(1, len(step)),
                )
        else:
            for step in chunks:
                if rt.mode.uses_texture:
                    yield from ctx.tex_touch(step)
                else:
                    yield from ctx.gtouch_read(step)

        yield Compute(
            cycles=spec.cycles_per_record + spec.cycles_per_access * n_steps
        )

        layers = max((len(e) for e in emissions), default=0)
        for j in range(layers):
            keys = [e[j][0] for e in emissions if len(e) > j]
            vals = [e[j][1] for e in emissions if len(e) > j]
            if cs is not None:
                yield from collect_warp_result(ctx, cs, keys, vals)
            else:
                yield from direct_emit_warp(ctx, rt.out, keys, vals)
        r += 1


# ----------------------------------------------------------------------
# Block-level reduction
# ----------------------------------------------------------------------


def reduce_br_kernel(ctx: WarpCtx, rt: ReduceRuntime):
    """One warp of the BR kernel: the block tree-reduces one key set.

    All warps execute the same control flow (BR is block-synchronous),
    so ``__syncthreads()`` is legal throughout and no helper warps are
    partitioned.  With staged output the single result record is
    appended to the output area and flushed collectively — pure
    synchronisation overhead, matching the paper's SO observations.
    """
    spec = rt.spec
    grp = rt.grouped
    nw = ctx.warps_per_block
    T = ctx.threads_per_block
    bs = ctx.block_state

    if rt.mode.stages_output and ctx.warp_id == 0:
        cs = CollectorState(
            layout=rt.layout, out=rt.out, n_warps=nw, n_compute=nw,
            yield_sync=rt.yield_sync,
        )
        init_collector(ctx, cs)
        bs["collector"] = cs
    if rt.mode.stages_output:
        yield from ctx.barrier()

    for g in range(ctx.block_id, grp.n_groups, rt.grid):
        m = int(grp.group_counts[g])
        geom = grp.group_value_geometry(g)

        # Group + key directory read (first warp charges it).
        if ctx.warp_id == 0:
            yield from ctx.gtouch_read(
                [(grp.group_dir_addr + DIR_ENTRY * g, DIR_ENTRY),
                 (grp.key_dir_addr + DIR_ENTRY * g, DIR_ENTRY)]
            )

        # ---- Phase A: strided local accumulation ------------------------
        if rt.mode.stages_input:
            yield from _br_phase_a_staged(ctx, rt, geom)
        else:
            yield from _br_phase_a_global(ctx, rt, geom)

        # ---- Phase B: tree reduction over per-thread partials -----------
        acc_bytes = max(4, int(grp.val_lens[int(grp.group_starts[g])]))
        active = min(T, max(1, m))
        rounds = max(1, ceil(np.log2(max(2, active))))
        for _ in range(rounds):
            yield from ctx.barrier()
            lanes = max(1, active // 2)
            words = [i * (acc_bytes // 4 or 1) * 4 for i in range(min(32, lanes))]
            yield SharedRead(nbytes=acc_bytes * min(32, lanes),
                             conflict=conflict_degree_cached(words))
            yield from ctx.compute(spec.cycles_per_access * ceil(acc_bytes / 4))
            yield SharedWrite(nbytes=acc_bytes * min(32, lanes))
            active = lanes
        yield from ctx.barrier()

        # ---- Finalize + emit (warp 0) ------------------------------------
        if ctx.warp_id == 0:
            values = [rt.grouped.gmem.read(a, ln) for a, ln in geom]
            acc = _functools_reduce(spec.combine, values)
            key = grp.group_key(g)
            k_out, v_out = spec.finalize(key, acc, m)
            bs["br_emit"] = ([k_out], [v_out])
            yield from ctx.compute(spec.cycles_per_record)

        if rt.mode.stages_output:
            # Collective append + immediate flush (one record).
            cs = bs["collector"]
            if ctx.warp_id == 0:
                keys, vals = bs["br_emit"]
                yield from collect_warp_result(ctx, cs, keys, vals)
            yield from participate_in_flush(ctx, cs)
        else:
            if ctx.warp_id == 0:
                keys, vals = bs["br_emit"]
                yield from direct_emit_warp(ctx, rt.out, keys, vals)
            yield from ctx.barrier()


def _br_phase_a_global(ctx: WarpCtx, rt: ReduceRuntime,
                       geom: list[tuple[int, int]]):
    """Each thread accumulates values ``t, t+T, t+2T, ...`` from global.

    At word-step ``j`` the warp's lanes read word ``j`` of their
    current values — for wide values (KMeans vectors) those addresses
    are ``value_size`` apart and a half-warp spans several 128-byte
    segments, the exact effect Section IV-E describes.
    """
    T = ctx.threads_per_block
    m = len(geom)
    spec = rt.spec
    steps = ceil(m / T) if m else 0
    for s in range(steps):
        base_idx = s * T + ctx.warp_id * WARP_SIZE
        mine = [geom[i] for i in range(base_idx, min(base_idx + WARP_SIZE, m))]
        if not mine:
            continue

        max_words = max(ceil(ln / 4) for _, ln in mine)
        raw = [
            [(a + 4 * j, 4) for a, ln in mine if 4 * j < ln]
            for j in range(max_words)
        ]
        for step in chunk_steps(raw, ctx.timing.memory_parallelism):
            yield from ctx.gtouch_read(step)
        yield from ctx.compute(spec.cycles_per_access * max_words)


def _br_phase_a_staged(ctx: WarpCtx, rt: ReduceRuntime,
                       geom: list[tuple[int, int]]):
    """SI/SIO: stage value chunks into the input area, then read them
    from shared memory (coalesced bulk loads replace the scattered
    per-value global traffic)."""
    layout = rt.layout
    T = ctx.threads_per_block
    spec = rt.spec
    m = len(geom)
    if m == 0:
        return
    # Pack values into input-area chunks.
    chunks: list[list[tuple[int, int]]] = [[]]
    used = 0
    for a, ln in geom:
        need = ln + DIR_ENTRY
        if used + need > layout.input_bytes and chunks[-1]:
            chunks.append([])
            used = 0
        if need > layout.input_bytes:
            raise FrameworkError("one value exceeds the input area")
        chunks[-1].append((a, ln))
        used += need
    nw = ctx.warps_per_block
    for chunk in chunks:
        lo = min(a for a, _ in chunk)
        hi = max(a + ln for a, ln in chunk)
        size = hi - lo
        # Cooperative stage-in of the chunk's contiguous span.
        per_warp = (size + nw - 1) // nw
        clo = min(ctx.warp_id * per_warp, size)
        chi = min(clo + per_warp, size)
        if chi > clo:
            yield from ctx.gtouch_read([(lo + clo, chi - clo)])
            yield SharedWrite(nbytes=chi - clo)
        yield from ctx.barrier()
        # Strided accumulation out of shared memory.
        cm = len(chunk)
        steps = ceil(cm / T)
        for s in range(steps):
            base_idx = s * T + ctx.warp_id * WARP_SIZE
            mine = [chunk[i] for i in range(base_idx, min(base_idx + WARP_SIZE, cm))]
            if not mine:
                continue
            max_words = max(ceil(ln / 4) for _, ln in mine)
            for j in range(max_words):
                n_active = sum(1 for _, ln in mine if 4 * j < ln)
                yield SharedRead(nbytes=4 * n_active)
            yield from ctx.compute(spec.cycles_per_access * max_words)
        yield from ctx.barrier()
