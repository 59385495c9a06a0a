"""Fast functional execution backend (no warp-level simulation).

Runs the *same* user Map/Reduce functions as the simulator, but
directly on the host: Map is a tight loop over the records, Shuffle a
dict group-by sorted by key bytes (matching the device's sort-based
shuffle), Reduce a loop over the key sets under either strategy.
Output is record-identical to :class:`~repro.backend.sim.SimBackend`
(up to the record reordering the sim's atomic appends legitimately
introduce — the cross-backend differential suite normalises by
sorting, like every other equivalence check in this repo).

Two tricks keep it orders of magnitude faster than both the simulator
and the naive CPU oracle:

* user functions receive :class:`~repro.gpu.accessor.Accessor` views
  carrying a shared *null* access trace — ``touch`` is a no-op, so no
  per-word trace lists are built only to be thrown away;
* value accessors are memoised by payload bytes in the Reduce loop
  (real workloads repeat values massively — Word Count's ``1``\\ s),
  eliminating most allocation.

What timings mean here: ``io_in``/``io_out`` are the same affine PCIe
transfer model the simulator charges (the data really would move);
``map``/``shuffle``/``reduce`` cycles are **zero** — this backend
measures *functional* behaviour and wall-clock throughput, never
kernel time.  Use the sim backend for any figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _fold

from ..errors import FrameworkError
from ..framework.columns import ColumnBatch, GroupedColumns
from ..framework.host import host_download_cost, host_upload_cost
from ..framework.modes import ReduceStrategy
from ..framework.records import KeyValueSet
from ..gpu.accessor import Accessor, host_accessor
from ..gpu.config import DeviceConfig
from ..gpu.stats import KernelStats
from ..store import (
    IntermediateStore,
    MemoryStore,
    SpillStore,
    open_store,
)
from .base import ExecutionBackend
from .plan import JobPlan

@dataclass
class FastContext:
    """Per-job state of a fast run: the transfer-model config plus any
    live intermediate stores (closed by :meth:`FastBackend.close`, so
    a failed job still releases spill files)."""

    plan: JobPlan
    config: DeviceConfig
    stores: list[IntermediateStore] = field(default_factory=list)
    #: Columnar execution resolved for this job (backend instance,
    #: then the ``columnar`` setting); see :meth:`FastBackend.map_phase`.
    columnar: bool = False


class StoreGroups:
    """Lazy grouped-intermediate handle: streams ``(key, values)``
    groups out of a spilling store (or any key-sorted group iterator).

    Unlike the eager ``list`` the memory path returns, this is
    single-consumption and has no length until drained — Reduce counts
    groups as it streams them.  ``stats`` exposes the producing
    store's :class:`~repro.store.base.StoreStats` so the reduce phase
    can fold spill accounting into its :class:`KernelStats`.
    """

    __slots__ = ("stats", "_it")

    def __init__(self, source, stats=None):
        if isinstance(source, IntermediateStore):
            self.stats = source.stats
            self._it = source.iter_groups()
        else:
            self.stats = stats
            self._it = source

    def __iter__(self):
        return iter(self._it)


class FastBackend(ExecutionBackend):
    """Execute functionally on the host, skipping the simulator.

    ``columnar=True`` switches Map/Shuffle/Reduce onto the vectorized
    columnar path (:mod:`repro.framework.columns`): input records are
    batched into array columns, workloads with ``map_batch`` /
    ``reduce_batch`` run whole batches through numpy, the shuffle is a
    stable argsort + group-boundary scan instead of the dict group-by,
    and workloads without batch kernels fall back to the scalar API
    per batch.  ``columnar=None`` (the default) takes the job's
    ``columnar`` setting (``$REPRO_COLUMNAR``).  Output stays
    byte-identical for integer workloads and bit-equal in practice for
    the float ones (batch kernels preserve the scalar operation order).
    """

    name = "fast"

    def __init__(self, columnar: bool | None = None):
        self.columnar = columnar

    def open(self, plan: JobPlan) -> FastContext:
        cfg = plan.config
        if cfg is None and plan.device is not None:
            cfg = plan.device.config
        return FastContext(
            plan=plan,
            config=cfg or DeviceConfig.gtx280(),
            columnar=(plan.settings["columnar"] if self.columnar is None
                      else bool(self.columnar)),
        )

    def _open_store(self, ctx) -> IntermediateStore:
        """A live store for one shuffle hop, released by :meth:`close`."""
        settings = ctx.plan.settings
        store = open_store(settings["store"], settings["memory_budget"],
                           root=settings["spill_dir"])
        ctx.stores.append(store)
        return store

    def close(self, ctx) -> None:
        stores, ctx.stores = ctx.stores, []
        for store in stores:
            store.close()

    def resolve_auto(self, ctx, plan, inp):
        """Memory modes are a timing label for the fast backend, not a
        semantics choice — but 'auto' still routes through the same
        cost-model tuner as the sim backend so the chosen (mode,
        strategy, block size) labels match across backends and the
        differential suite can compare runs one-to-one."""
        from dataclasses import replace

        from ..tune import decide_modes

        decision = decide_modes(
            plan.spec, inp, config=ctx.config,
            strategy=plan.strategy,
            threads_per_block=plan.threads_per_block,
        )
        return replace(
            plan, mode=decision.mode, strategy=decision.strategy,
            threads_per_block=decision.threads_per_block, tuned=decision,
        ).normalised()

    # -- transfers (model-costed, data stays host-side) ----------------

    def upload_input(self, ctx, kvs, label):
        return kvs, host_upload_cost(kvs, ctx.config).cycles

    def download_output(self, ctx, handle):
        return handle, host_download_cost(handle, ctx.config).cycles

    def to_host(self, ctx, handle):
        return handle

    def stage_intermediate(self, ctx, kvs, label):
        return kvs

    def record_count(self, ctx, handle) -> int:
        return len(handle)

    # -- phases --------------------------------------------------------

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        if ctx.columnar and batch is None:
            # Streamed batches (batch is not None) keep the scalar Map:
            # their sink is record-oriented; the columnar path picks
            # the stream back up at the Shuffle.
            return self._map_phase_columnar(ctx, d_in, tr)
        spec = ctx.plan.spec
        out = KeyValueSet()
        emit = _emit_into(out)
        const = host_accessor(spec.const_bytes) if spec.const_bytes else None
        map_record = spec.map_record
        # Host-execution sub-span: zero sim cycles by design, but under
        # a dual-clock tracer it carries the real wall time of the loop
        # — this is what makes `repro-trace --backend fast` non-empty.
        with tr.span("map_exec", records=len(d_in)) as sp:
            for k, v in d_in:
                map_record(host_accessor(k), host_accessor(v), emit, const)
            if sp is not None:
                sp.attrs["emitted"] = len(out)
        stats = _phase_stats(ctx, records_in=len(d_in), records_out=len(out))
        attrs = {"batch": batch} if batch is not None else {}
        tr.kernel("map_kernel", stats, **attrs)
        return out, stats

    def _map_phase_columnar(self, ctx, d_in, tr):
        """Columnar Map: batch the input into columns, run the
        workload's ``map_batch`` per batch (scalar fallback for
        batches it declines or when no batch kernel exists), and hand
        the Shuffle one concatenated :class:`ColumnBatch`."""
        plan = ctx.plan
        spec = plan.spec
        n = len(d_in)
        width = plan.settings["columnar_batch"]
        map_batch = spec.map_batch
        map_record = spec.map_record
        const_bytes = spec.const_bytes
        const = host_accessor(const_bytes) if const_bytes else None
        parts: list[ColumnBatch] = []
        vec = fallback = 0
        with tr.span("map_exec", records=n) as sp:
            keys, vals = d_in.keys, d_in.values
            for lo in range(0, n, width):
                hi = min(lo + width, n)
                res = None
                if map_batch is not None:
                    cols = ColumnBatch.from_lists(keys[lo:hi], vals[lo:hi])
                    res = map_batch(cols, const=const_bytes)
                    if res is not None and not isinstance(res, ColumnBatch):
                        raise FrameworkError(
                            f"{spec.name}.map_batch must return a "
                            f"ColumnBatch or None, got {type(res)!r}"
                        )
                if res is None:
                    part = KeyValueSet()
                    emit = _emit_into(part)
                    for i in range(lo, hi):
                        map_record(host_accessor(keys[i]),
                                   host_accessor(vals[i]), emit, const)
                    res = ColumnBatch.from_kvs(part)
                    fallback += 1
                else:
                    vec += 1
                parts.append(res)
            out = (ColumnBatch.concat(parts) if parts
                   else ColumnBatch.from_lists([], []))
            if sp is not None:
                sp.attrs["emitted"] = len(out)
                sp.attrs["columnar_batches"] = vec + fallback
                sp.attrs["vectorized_batches"] = vec
        stats = _phase_stats(ctx, records_in=n, records_out=len(out))
        stats.count("columnar_batches", vec + fallback)
        stats.count("columnar_map_vectorized", vec)
        stats.count("columnar_map_fallback", fallback)
        stats.count("columnar_batch_records", min(width, n) if n else 0)
        tr.kernel("map_kernel", stats)
        if plan.strategy is None:
            # Map-only job: the Map output *is* the job output, which
            # downstream consumers read as a host record set.
            return out.to_kvs(), stats
        return out, stats

    def shuffle_phase(self, ctx, inter, tr, label):
        if isinstance(inter, IntermediateStore):
            # Streamed sink: the batches already emitted into the store.
            store = inter
            with tr.span("shuffle_exec", records=len(store)) as sp:
                return self._grouped_from(ctx, store, sp)
        if ctx.columnar:
            if not isinstance(inter, ColumnBatch):
                # Streamed tail: the sink is a host record set — lift
                # it into columns so the vectorized group-by applies.
                inter = ColumnBatch.from_kvs(inter)
            with tr.span("shuffle_exec", records=len(inter)) as sp:
                store = self._open_store(ctx)
                store.emit_columns(inter)
                return self._grouped_from(ctx, store, sp)
        with tr.span("shuffle_exec", records=len(inter)) as sp:
            store = self._open_store(ctx)
            store.emit_many(inter)
            return self._grouped_from(ctx, store, sp)

    def _grouped_from(self, ctx, store, sp):
        """Finalize a filled store into the grouped handle.

        Memory stores drain eagerly into the historical sorted list
        (exact group count, byte-identical default path); spill stores
        hand back a lazy :class:`StoreGroups` stream with the group
        count unknown until Reduce drains it.
        """
        store.finalize()
        if isinstance(store, MemoryStore):
            if ctx.columnar:
                cg = store.column_groups()
                if cg is not None:
                    if sp is not None:
                        sp.attrs["groups"] = len(cg)
                        sp.attrs["vectorized"] = cg.vectorized
                    return cg, 0.0, len(cg)
            grouped = list(store.iter_groups())
            if sp is not None:
                sp.attrs["groups"] = len(grouped)
            return grouped, 0.0, len(grouped)
        if sp is not None:
            sp.attrs["spill_runs"] = store.stats.spill_runs
            sp.attrs["spilled_bytes"] = store.stats.spilled_bytes
        return StoreGroups(store), 0.0, None

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        plan = ctx.plan
        plan.check_reduce()
        spec = plan.spec
        strategy = plan.strategy
        out = KeyValueSet()
        emit = _emit_into(out)
        const = host_accessor(spec.const_bytes) if spec.const_bytes else None
        lazy = isinstance(grouped, StoreGroups)
        columnar = isinstance(grouped, GroupedColumns)
        span_attrs = {} if lazy else {"groups": len(grouped)}
        n_in = n_groups = 0
        vec_reduce = 0
        with tr.span("reduce_exec", **span_attrs) as sp:
            if (columnar and spec.reduce_batch is not None
                    and (plan.is_mars
                         or strategy is ReduceStrategy.TR)):
                res = spec.reduce_batch(
                    grouped.keys, grouped.offsets, grouped.values,
                    const=spec.const_bytes,
                )
                if res is not None:
                    if not isinstance(res, ColumnBatch):
                        raise FrameworkError(
                            f"{spec.name}.reduce_batch must return a "
                            f"ColumnBatch or None, got {type(res)!r}"
                        )
                    out = res.to_kvs()
                    n_groups = len(grouped)
                    n_in = grouped.n_values
                    vec_reduce = 1
            if vec_reduce:
                pass  # vectorized Reduce produced the output above
            elif strategy is ReduceStrategy.BR and not plan.is_mars:
                combine, finalize = spec.combine, spec.finalize
                for key, values in grouped:
                    n_groups += 1
                    n_in += len(values)
                    acc = _fold(combine, values)
                    k_out, v_out = finalize(key, acc, len(values))
                    out.append(bytes(k_out), bytes(v_out))
            else:
                reduce_record = spec.reduce_record
                cache: dict[bytes, Accessor] = {}

                def acc_of(data: bytes) -> Accessor:
                    a = cache.get(data)
                    if a is None:
                        a = host_accessor(data)
                        cache[data] = a
                    return a

                for key, values in grouped:
                    n_groups += 1
                    n_in += len(values)
                    reduce_record(
                        acc_of(key), [acc_of(v) for v in values], emit, const
                    )
            if sp is not None:
                sp.attrs["emitted"] = len(out)
                if lazy:
                    sp.attrs["groups"] = n_groups
        stats = _phase_stats(ctx, records_in=n_in, records_out=len(out))
        if lazy and grouped.stats is not None:
            for name, v in grouped.stats.as_extra().items():
                stats.count(name, v)
        if columnar:
            stats.count("columnar_groups", n_groups)
            stats.count("columnar_reduce_vectorized", vec_reduce)
        tr.kernel("reduce_kernel", stats)
        return out, stats

    # -- streamed sink ---------------------------------------------------

    def stream_sink(self, ctx):
        """Spill-aware streamed accumulator: when the job's ``store``
        setting is the spill store and the job has a Reduce tail, batch
        Map output goes straight into a budgeted store instead of an
        unbounded host record set.  Strategy-``None`` jobs keep the
        record set — their sink *is* the job output."""
        plan = ctx.plan
        if (plan.strategy is not None
                and plan.settings["store"] == SpillStore.name):
            return self._open_store(ctx)
        return KeyValueSet()

    def absorb_batch(self, ctx, sink, handle) -> None:
        if isinstance(sink, IntermediateStore):
            sink.emit_many(self.to_host(ctx, handle))
        else:
            super().absorb_batch(ctx, sink, handle)


class ColumnarBackend(FastBackend):
    """The fast backend pinned to the columnar path.

    Registered as ``"columnar"`` so CLIs and ``$REPRO_BACKEND`` can
    select vectorized execution by name; equivalent to
    ``FastBackend(columnar=True)``.
    """

    name = "columnar"

    def __init__(self):
        super().__init__(columnar=True)


def _emit_into(out: KeyValueSet):
    fast_append = out.append_unchecked
    checked_append = out.append

    def emit(k: bytes, v: bytes) -> None:
        if type(k) is bytes and type(v) is bytes:
            fast_append(k, v)
        else:
            # bytearray/memoryview emits: validate and copy like the
            # simulator's collector does.
            checked_append(k, v)

    return emit


def _phase_stats(ctx, *, records_in: int, records_out: int) -> KernelStats:
    """Placeholder stats: the fast backend does not model kernel time,
    so ``cycles`` is zero and only throughput counters are filled."""
    stats = KernelStats(threads_per_block=ctx.plan.threads_per_block)
    stats.count("fast_records_in", records_in)
    stats.count("fast_records_out", records_out)
    return stats
