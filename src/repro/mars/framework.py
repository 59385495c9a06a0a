"""The Mars baseline: two-pass MapReduce without atomics.

Mars (He et al., PACT'08) predates GPU atomics, so every phase with
variable-sized output runs twice (Section II-B):

1. **MapCount / ReduceCount** — compute each task's output sizes;
2. **prefix scan** — device-wide exclusive scan of the sizes gives
   every task its private output offsets;
3. **the real pass** — re-reads the input, re-runs the user function,
   and writes results to the precomputed offsets with no
   synchronisation at all.

Host<->device transfers and the shuffle are shared with our framework
("Our framework and Mars share the same data transmission ... as well
as the same shuffle phase", Section IV-F).  Reduction is thread-level
only ("Mars supports only thread-level reduction").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FrameworkError
from ..framework.api import MapReduceSpec
from ..framework.job import JobResult
from ..framework.map_engine import (
    MapRuntime,
    _charge_dir_reads,
    _replay,
    _replay_const,
    build_map_runtime,
)
from ..framework.modes import MemoryMode, ReduceStrategy
from ..framework.records import (
    DIR_ENTRY,
    DeviceRecordSet,
    KeyValueSet,
    OutputBuffers,
)
from ..framework.shuffle import GroupedDeviceSet
from ..framework.staging import Tile, plan_tiles_unstaged
from ..obs.tracer import NULL_TRACER, Tracer
from ..gpu.accessor import Accessor, AccessTrace
from ..gpu.config import WARP_SIZE, DeviceConfig
from ..gpu.instructions import GlobalWrite
from ..gpu.kernel import Device, WarpCtx
from ..gpu.stats import KernelStats
from .count_pass import CountArrays, MarsCountRuntime, mars_map_count_kernel
from .scan import multi_scan


@dataclass
class MarsRealRuntime:
    """Runtime of a real (second) pass: offsets from the scans."""

    rt: MapRuntime
    key_offs_out: np.ndarray
    val_offs_out: np.ndarray
    rec_offs_out: np.ndarray


# ----------------------------------------------------------------------
# Map phase
# ----------------------------------------------------------------------


def mars_map_phase(
    device: Device,
    spec: MapReduceSpec,
    d_in: DeviceRecordSet,
    *,
    threads_per_block: int = 128,
    tracer: Tracer | None = None,
) -> tuple[DeviceRecordSet, KernelStats]:
    """MapCount -> scan -> Map; returns (intermediate, merged stats)."""
    tr = tracer if tracer is not None else NULL_TRACER
    rt = build_map_runtime(
        device, spec, MemoryMode.G, d_in, threads_per_block=threads_per_block
    )

    # Pass 1: MapCount.
    n = d_in.count
    counts_addr = device.gmem.alloc(12 * max(1, n), f"mars.counts.{spec.name}")
    crt = MarsCountRuntime(
        rt=rt, counts=CountArrays.zeros(n), counts_addr=counts_addr
    )
    tl = tr.make_timeline()
    count_stats = device.launch(
        mars_map_count_kernel,
        grid=rt.grid,
        block=threads_per_block,
        smem_bytes=rt.layout.smem_bytes,
        args=(crt,),
        timeline=tl,
    )
    tr.kernel("map_count_kernel", count_stats, timeline=tl)

    # Prefix scans over the three size arrays.
    scans, scan_cycles = multi_scan(
        [crt.counts.key_bytes, crt.counts.val_bytes, crt.counts.records],
        device.config,
    )
    kscan, vscan, rscan = scans
    with tr.span("prefix_scan"):
        tr.advance(scan_cycles)

    # Pass 2: the real Map, writing at the scanned offsets.
    rrt = MarsRealRuntime(
        rt=rt,
        key_offs_out=kscan.offsets,
        val_offs_out=vscan.offsets,
        rec_offs_out=rscan.offsets,
    )
    tl = tr.make_timeline()
    real_stats = device.launch(
        mars_real_map_kernel,
        grid=rt.grid,
        block=threads_per_block,
        smem_bytes=rt.layout.smem_bytes,
        args=(rrt,),
        timeline=tl,
    )
    tr.kernel("map_real_kernel", real_stats, timeline=tl)
    # Publish the totals (done by the host in Mars).
    gm = device.gmem
    gm.write_u32(rt.out.key_tail, kscan.total)
    gm.write_u32(rt.out.val_tail, vscan.total)
    gm.write_u32(rt.out.rec_count, rscan.total)
    rt.out.check_reservation(kscan.total, vscan.total, rscan.total)

    merged = count_stats.merge(real_stats)
    merged.cycles = count_stats.cycles + scan_cycles + real_stats.cycles
    merged.count("mars_scan_cycles", int(scan_cycles))
    return rt.out.as_record_set(), merged


def mars_real_map_kernel(ctx: WarpCtx, rrt: MarsRealRuntime):
    """Second Map pass: re-read, re-compute, write without atomics."""
    rt = rrt.rt
    for t_i in range(ctx.block_id, len(rt.tiles), rt.grid):
        tile = rt.tiles[t_i]
        yield from _real_rounds(ctx, rrt, tile)
        yield from ctx.barrier()


def _real_rounds(ctx: WarpCtx, rrt: MarsRealRuntime, tile: Tile):
    rt = rrt.rt
    spec = rt.spec
    out = rt.out
    nw = ctx.warps_per_block
    r = 0
    while True:
        base_rec = tile.start + (r * nw + ctx.warp_id) * WARP_SIZE
        if base_rec >= tile.end:
            break
        recs = list(range(base_rec, min(base_rec + WARP_SIZE, tile.end)))

        yield from _charge_dir_reads(ctx, rt, None, recs)

        key_traces: list[AccessTrace] = []
        val_traces: list[AccessTrace] = []
        const_traces: list[AccessTrace] = []
        warp_kb = warp_vb = warp_nr = 0
        for rec in recs:
            key_acc = Accessor(rt.record_key(rec))
            val_acc = Accessor(rt.record_val(rec))
            const_acc = Accessor(rt.const_data) if rt.const_data else None
            ko = int(rrt.key_offs_out[rec])
            vo = int(rrt.val_offs_out[rec])
            ro = int(rrt.rec_offs_out[rec])
            state = {"ko": ko, "vo": vo, "ro": ro}

            def emit(k: bytes, v: bytes, _s=state) -> None:
                k, v = bytes(k), bytes(v)
                gm = ctx.gmem
                gm.write(out.keys_addr + _s["ko"], k)
                gm.write(out.vals_addr + _s["vo"], v)
                gm.write_u32(out.key_dir_addr + DIR_ENTRY * _s["ro"], _s["ko"])
                gm.write_u32(out.key_dir_addr + DIR_ENTRY * _s["ro"] + 4, len(k))
                gm.write_u32(out.val_dir_addr + DIR_ENTRY * _s["ro"], _s["vo"])
                gm.write_u32(out.val_dir_addr + DIR_ENTRY * _s["ro"] + 4, len(v))
                _s["ko"] += len(k)
                _s["vo"] += len(v)
                _s["ro"] += 1

            spec.map_record(key_acc, val_acc, emit, const_acc)
            warp_kb += state["ko"] - ko
            warp_vb += state["vo"] - vo
            warp_nr += state["ro"] - ro
            key_traces.append(key_acc.trace)
            val_traces.append(val_acc.trace)
            const_traces.append(const_acc.trace if const_acc else AccessTrace())

        yield from _replay(ctx, rt, None, recs, key_traces, which="key")
        yield from _replay(ctx, rt, None, recs, val_traces, which="val")
        if rt.const_data:
            yield from _replay_const(ctx, rt, const_traces)
        max_steps = max(
            len(k) + len(v) + len(c)
            for k, v, c in zip(key_traces, val_traces, const_traces)
        )
        yield from ctx.compute(
            spec.cycles_per_record + spec.cycles_per_access * max_steps
        )
        # Output writes: tasks of a warp own contiguous reserved
        # ranges (the scan is over consecutive task ids), so the
        # stores coalesce.
        if warp_kb:
            yield GlobalWrite(
                addr=out.keys_addr + int(rrt.key_offs_out[recs[0]]), nbytes=warp_kb
            )
        if warp_vb:
            yield GlobalWrite(
                addr=out.vals_addr + int(rrt.val_offs_out[recs[0]]), nbytes=warp_vb
            )
        if warp_nr:
            ro0 = int(rrt.rec_offs_out[recs[0]])
            yield GlobalWrite(addr=out.key_dir_addr + DIR_ENTRY * ro0,
                              nbytes=DIR_ENTRY * warp_nr)
            yield GlobalWrite(addr=out.val_dir_addr + DIR_ENTRY * ro0,
                              nbytes=DIR_ENTRY * warp_nr)
        r += 1


# ----------------------------------------------------------------------
# Reduce phase (thread-level only, like Mars)
# ----------------------------------------------------------------------


@dataclass
class MarsReduceRuntime:
    spec: MapReduceSpec
    grouped: GroupedDeviceSet
    out: OutputBuffers
    tiles: list[Tile]
    grid: int
    const_data: bytes | None
    const_addr: int
    #: counting pass output
    counts: CountArrays | None = None
    counts_addr: int = 0
    #: real pass offsets
    key_offs_out: np.ndarray | None = None
    val_offs_out: np.ndarray | None = None
    rec_offs_out: np.ndarray | None = None
    count_only: bool = True


def mars_reduce_phase(
    device: Device,
    spec: MapReduceSpec,
    grouped: GroupedDeviceSet,
    *,
    threads_per_block: int = 128,
    tracer: Tracer | None = None,
) -> tuple[DeviceRecordSet, KernelStats]:
    """ReduceCount -> scan -> Reduce (thread-level)."""
    tr = tracer if tracer is not None else NULL_TRACER
    if spec.reduce_record is None:
        raise FrameworkError(f"{spec.name}: Mars reduce needs a TR reduce fn")
    gm = device.gmem
    n = grouped.n_groups
    payload = int(grouped.key_lens.sum() + grouped.val_lens.sum()) if n else 0
    kcap, vcap, rcap = spec.output_capacity(None, payload=payload, count=max(1, n))
    out = OutputBuffers.allocate(
        gm, key_capacity=kcap, val_capacity=vcap, record_capacity=rcap,
        label=f"mars_red_out.{spec.name}",
    )
    const_addr = 0
    if spec.const_bytes:
        const_addr = gm.alloc(len(spec.const_bytes), f"mars_red_const.{spec.name}")
        gm.write(const_addr, spec.const_bytes)
    tiles = plan_tiles_unstaged(n, threads_per_block)
    occ = device.config.blocks_per_mp(threads_per_block, 1024)
    grid = max(1, min(len(tiles), device.config.mp_count * occ))
    rrt = MarsReduceRuntime(
        spec=spec, grouped=grouped, out=out, tiles=tiles, grid=grid,
        const_data=spec.const_bytes, const_addr=const_addr,
        counts=CountArrays.zeros(n),
        counts_addr=gm.alloc(12 * max(1, n), f"mars.red_counts.{spec.name}"),
    )
    if n == 0:
        return out.as_record_set(), KernelStats()

    tl = tr.make_timeline()
    count_stats = device.launch(
        mars_reduce_kernel, grid=grid, block=threads_per_block,
        smem_bytes=1024, args=(rrt,), timeline=tl,
    )
    tr.kernel("reduce_count_kernel", count_stats, timeline=tl)
    scans, scan_cycles = multi_scan(
        [rrt.counts.key_bytes, rrt.counts.val_bytes, rrt.counts.records],
        device.config,
    )
    kscan, vscan, rscan = scans
    with tr.span("prefix_scan"):
        tr.advance(scan_cycles)
    rrt.count_only = False
    rrt.key_offs_out = kscan.offsets
    rrt.val_offs_out = vscan.offsets
    rrt.rec_offs_out = rscan.offsets
    tl = tr.make_timeline()
    real_stats = device.launch(
        mars_reduce_kernel, grid=grid, block=threads_per_block,
        smem_bytes=1024, args=(rrt,), timeline=tl,
    )
    tr.kernel("reduce_real_kernel", real_stats, timeline=tl)
    gm.write_u32(out.key_tail, kscan.total)
    gm.write_u32(out.val_tail, vscan.total)
    gm.write_u32(out.rec_count, rscan.total)
    out.check_reservation(kscan.total, vscan.total, rscan.total)

    merged = count_stats.merge(real_stats)
    merged.cycles = count_stats.cycles + scan_cycles + real_stats.cycles
    merged.count("mars_scan_cycles", int(scan_cycles))
    return out.as_record_set(), merged


def mars_reduce_kernel(ctx: WarpCtx, rrt: MarsReduceRuntime):
    """Both ReduceCount and the real Reduce (selected by count_only)."""
    spec = rrt.spec
    grp = rrt.grouped
    out = rrt.out
    nw = ctx.warps_per_block
    for t_i in range(ctx.block_id, len(rrt.tiles), rrt.grid):
        tile = rrt.tiles[t_i]
        r = 0
        while True:
            base_g = tile.start + (r * nw + ctx.warp_id) * WARP_SIZE
            if base_g >= tile.end:
                break
            gs = list(range(base_g, min(base_g + WARP_SIZE, tile.end)))
            yield from ctx.gtouch_read(
                [(grp.key_dir_addr + DIR_ENTRY * g, DIR_ENTRY) for g in gs]
            )
            yield from ctx.gtouch_read(
                [(grp.group_dir_addr + DIR_ENTRY * g, DIR_ENTRY) for g in gs]
            )
            streams: list[list[tuple[int, int]]] = []
            warp_kb = warp_vb = warp_nr = 0
            for g in gs:
                key_acc = Accessor(grp.group_key(g))
                geom = grp.group_value_geometry(g)
                val_accs = [Accessor(grp.gmem.read(a, ln)) for a, ln in geom]
                const_acc = Accessor(rrt.const_data) if rrt.const_data else None

                if rrt.count_only:
                    kb = vb = nr = 0

                    def emit(k: bytes, v: bytes) -> None:
                        nonlocal kb, vb, nr
                        kb += len(k)
                        vb += len(v)
                        nr += 1

                    spec.reduce_record(key_acc, val_accs, emit, const_acc)
                    rrt.counts.key_bytes[g] = kb
                    rrt.counts.val_bytes[g] = vb
                    rrt.counts.records[g] = nr
                    ctx.gmem.write_u32(rrt.counts_addr + 12 * g, kb)
                    ctx.gmem.write_u32(rrt.counts_addr + 12 * g + 4, vb)
                    ctx.gmem.write_u32(rrt.counts_addr + 12 * g + 8, nr)
                else:
                    state = {
                        "ko": int(rrt.key_offs_out[g]),
                        "vo": int(rrt.val_offs_out[g]),
                        "ro": int(rrt.rec_offs_out[g]),
                    }
                    ko0, vo0, ro0 = state["ko"], state["vo"], state["ro"]

                    def emit(k: bytes, v: bytes, _s=state) -> None:
                        k, v = bytes(k), bytes(v)
                        gm = ctx.gmem
                        gm.write(out.keys_addr + _s["ko"], k)
                        gm.write(out.vals_addr + _s["vo"], v)
                        gm.write_u32(out.key_dir_addr + DIR_ENTRY * _s["ro"], _s["ko"])
                        gm.write_u32(
                            out.key_dir_addr + DIR_ENTRY * _s["ro"] + 4, len(k)
                        )
                        gm.write_u32(out.val_dir_addr + DIR_ENTRY * _s["ro"], _s["vo"])
                        gm.write_u32(
                            out.val_dir_addr + DIR_ENTRY * _s["ro"] + 4, len(v)
                        )
                        _s["ko"] += len(k)
                        _s["vo"] += len(v)
                        _s["ro"] += 1

                    spec.reduce_record(key_acc, val_accs, emit, const_acc)
                    warp_kb += state["ko"] - ko0
                    warp_vb += state["vo"] - vo0
                    warp_nr += state["ro"] - ro0

                stream: list[tuple[int, int]] = []
                kbase = grp.keys_addr + int(grp.key_offs[g])
                stream += [(kbase + 4 * w, 4) for w in key_acc.trace.words]
                vstart = int(grp.group_starts[g])
                for j, (acc, (a, _ln)) in enumerate(zip(val_accs, geom)):
                    stream.append(
                        (grp.val_dir_addr + DIR_ENTRY * (vstart + j), DIR_ENTRY)
                    )
                    stream += [(a + 4 * w, 4) for w in acc.trace.words]
                if const_acc is not None:
                    stream += [
                        (rrt.const_addr + 4 * w, 4) for w in const_acc.trace.words
                    ]
                streams.append(stream)

            from ..framework.map_engine import chunk_steps

            n_steps = max((len(s) for s in streams), default=0)
            raw = [
                [s[k] for s in streams if k < len(s)] for k in range(n_steps)
            ]
            for step in chunk_steps(raw, ctx.timing.memory_parallelism):
                yield from ctx.gtouch_read(step)
            yield from ctx.compute(
                spec.cycles_per_record + spec.cycles_per_access * n_steps
            )
            if not rrt.count_only:
                if warp_kb:
                    yield GlobalWrite(
                        addr=out.keys_addr + int(rrt.key_offs_out[gs[0]]),
                        nbytes=warp_kb,
                    )
                if warp_vb:
                    yield GlobalWrite(
                        addr=out.vals_addr + int(rrt.val_offs_out[gs[0]]),
                        nbytes=warp_vb,
                    )
                if warp_nr:
                    ro0 = int(rrt.rec_offs_out[gs[0]])
                    yield GlobalWrite(
                        addr=out.key_dir_addr + DIR_ENTRY * ro0,
                        nbytes=DIR_ENTRY * warp_nr,
                    )
                    yield GlobalWrite(
                        addr=out.val_dir_addr + DIR_ENTRY * ro0,
                        nbytes=DIR_ENTRY * warp_nr,
                    )
            r += 1
        yield from ctx.barrier()


# ----------------------------------------------------------------------
# End-to-end Mars job
# ----------------------------------------------------------------------


def run_mars_job(
    spec: MapReduceSpec,
    inp: KeyValueSet,
    *,
    strategy: ReduceStrategy | None = None,
    config: DeviceConfig | None = None,
    device: Device | None = None,
    threads_per_block: int = 128,
    tracer: Tracer | None = None,
    backend=None,
    check=None,
    store: str | None = None,
    memory_budget: int | None = None,
) -> JobResult:
    """Run a complete Mars-style job (two-pass Map, two-pass Reduce).

    ``strategy`` may only be None or TR — "Mars supports only
    thread-level reduction" (Section IV-F).  ``tracer`` records the
    two-pass structure: each phase span holds its count-pass kernel,
    prefix-scan and real-pass kernel as children.
    ``backend`` selects the execution substrate (see
    :func:`repro.framework.job.run_job`); under ``"fast"`` the job
    runs functionally (single-pass on the host — the two-pass
    structure is a timing artefact the fast backend does not model);
    ``store``/``memory_budget`` pick the functional backends'
    intermediate-store policy exactly as in ``run_job``.
    """
    if strategy is ReduceStrategy.BR:
        raise FrameworkError("Mars supports only thread-level reduction (TR)")
    spec.validate()
    # Local import: repro.backend imports framework modules that in
    # turn are imported by this one.
    from ..backend import ENGINE_MARS, JobPlan, execute_plan, get_backend

    plan = JobPlan(
        spec=spec,
        mode=MemoryMode.G,
        strategy=strategy,
        engine=ENGINE_MARS,
        config=config,
        device=device,
        threads_per_block=threads_per_block,
        backend=backend,
        check=check,
        store=store,
        memory_budget=memory_budget,
    ).normalised()
    return execute_plan(plan, inp, get_backend(plan.settings["backend"]),
                        tracer)
