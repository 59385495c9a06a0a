"""The sharded backend: fast-backend phases fanned out over workers.

:class:`ShardedBackend` is everything the multi-process executors
share.  A subclass only names a **transport** — the object that gets
tasks to worker processes and results back:

* ``start(spec, strategy, is_mars)`` forks the workers, which inherit
  the job's spec (:func:`repro.dist.tasks.configure`);
* ``run_phase(phase, tasks) -> {shard: reply}`` runs an iterable of
  ``(shard, payload)`` tasks through :mod:`repro.dist.tasks` and
  returns exactly one reply per shard;
* ``shutdown()`` reaps every worker process, on every exit path;
* ``counters`` holds at least ``map_tasks`` / ``reduce_tasks``
  (dispatches, retries included) plus any recovery counters
  (``retries``, ``speculated``, ...).

:class:`~repro.backend.parallel.ParallelBackend` uses a fork pool;
:class:`~repro.backend.distributed.DistributedBackend` uses the
socket :class:`~repro.dist.Cluster`.  The phases are the same for
both:

* **Map** — the input is cut into M contiguous GFS-style splits of at
  most ``split_bytes`` input bytes each, so M tracks data volume, not
  worker count.  Split outputs concatenate in split order, which is
  input order.  Under the spill store each worker writes its
  emissions into key-sorted run files in a coordinator-owned
  directory, with the memory budget split evenly across workers.
* **Shuffle** — runs in the coordinator: the fast backend's store
  group-by, or a k-way merge of the per-split runs.
* **Reduce** — the sorted groups are cut into R = workers x 2
  contiguous key ranges (or, for a lazy spill-merge stream, into
  fixed-size chunks pulled as workers come free).  Range outputs
  concatenate in range order, which is sorted key order.

Workers ship plain pairs and fold each BR group in full, so output is
**byte-identical to** :class:`~repro.backend.fast.FastBackend` for
every workload, float BR folds included.  Inputs below ``min_records``
never start a transport and run in-process on the fast backend, as
does every platform without ``fork``.  Timing semantics match the fast
backend: transfers are model-costed, kernel cycles read as zero.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Any

from ..errors import FrameworkError
from ..framework.host import shard_slices
from ..framework.records import KeyValueSet
from ..gpu.stats import KernelStats
from ..obs.telemetry import ShardProfile
from ..store import (
    DEFAULT_BUDGET,
    SpillStore,
    StoreStats,
    merge_runs,
    record_cost,
)
from .fast import FastBackend, FastContext, StoreGroups
from .plan import JobPlan

#: Below this many records a phase runs in-process: starting workers
#: and round-tripping splits costs more than the work.
DEFAULT_MIN_RECORDS = 2048

#: GFS-style split size: map tasks are cut at this many input bytes
#: (key + value + per-record overhead) — the paper-lineage "many more
#: tasks than workers" rule that gives retry and speculation their
#: granularity.
DEFAULT_SPLIT_BYTES = 64 << 10

#: Reduce tasks per worker (R = workers x this).
REDUCES_PER_WORKER = 2

#: Groups per reduce task when the grouped intermediate is a lazy
#: spill-merge stream: bounds how much of it is materialised at once.
STREAM_REDUCE_BATCH = 1024

#: Transport counters reported per phase when they moved.
_RECOVERY_COUNTERS = ("retries", "speculated", "duplicates",
                      "worker_deaths", "respawns")


def resolve_split_bytes(split_bytes: int | None = None) -> int:
    """The explicit split size, else :data:`DEFAULT_SPLIT_BYTES`."""
    if split_bytes is None:
        return DEFAULT_SPLIT_BYTES
    if split_bytes < 1:
        raise FrameworkError("split_bytes must be >= 1")
    return split_bytes


class _SpilledRuns:
    """Map-phase handle when splits spilled: per-split run-file lists.

    ``run_lists`` is one chronological run-path list per split, in
    split order — exactly the producer layout
    :func:`repro.store.spill.merge_runs` needs to reconstruct global
    emission order for equal keys.  ``stats`` aggregates the workers'
    spill accounting: ``peak_bytes`` sums the ``workers`` largest
    per-split highs, since at most that many splits buffer at once.
    """

    __slots__ = ("run_lists", "emit_count", "stats")

    def __init__(self, docs: list[dict], workers: int):
        self.run_lists = [d["runs"] for d in docs]
        self.emit_count = sum(d["emitted"] for d in docs)
        peaks = sorted((d["peak_bytes"] for d in docs), reverse=True)
        self.stats = StoreStats(
            emitted_records=self.emit_count,
            peak_bytes=sum(peaks[:workers]),
            spill_runs=sum(len(runs) for runs in self.run_lists),
            spilled_bytes=sum(d["spilled_bytes"] for d in docs),
        )


def _chunks(groups, size: int):
    """``(shard, payload)`` reduce tasks over contiguous fixed-size
    chunks of a lazy group stream (chunk order = sorted key order)."""
    it = iter(groups)
    for shard in count():
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield shard, {"groups": chunk}


@dataclass
class ShardedContext(FastContext):
    """Per-job state: the fast context plus the transport."""

    #: The started transport, or None while every phase has run
    #: in-process.
    transport: Any = None
    #: Shard profiles of accepted results, in phase order.
    profiles: list[ShardProfile] = field(default_factory=list)
    #: Coordinator-owned spill directories (workers write run files
    #: into them); removed wholesale in :meth:`ShardedBackend.close`,
    #: so even a failed or killed attempt leaves no run files.
    spill_dirs: list[str] = field(default_factory=list)


class ShardedBackend(FastBackend):
    """Fast-backend phases sharded over a transport's workers.

    Transfers, conversions, the streamed sink and every in-process
    fallback are the fast backend's, pinned scalar so output never
    changes shape under ``$REPRO_COLUMNAR``.
    """

    def __init__(self, workers: int | None, min_records: int | None,
                 split_bytes: int | None):
        super().__init__(columnar=False)
        if workers is not None and workers < 1:
            raise FrameworkError("workers must be >= 1")
        #: ``None`` means one worker per CPU.
        self.workers = workers if workers is not None else os.cpu_count() or 1
        self.min_records = (DEFAULT_MIN_RECORDS if min_records is None
                            else max(0, min_records))
        self.split_bytes = resolve_split_bytes(split_bytes)
        #: Transport counters of the most recently closed job that
        #: started one.
        self.last_counters: dict[str, int] = {}

    @abc.abstractmethod
    def _new_transport(self):
        """A fresh, unstarted transport for one job."""

    # -- lifecycle -----------------------------------------------------

    def open(self, plan: JobPlan) -> ShardedContext:
        return ShardedContext(**vars(super().open(plan)))

    def close(self, ctx: ShardedContext) -> None:
        """Reap the transport on every exit path, then release stores
        and spill directories."""
        transport, ctx.transport = ctx.transport, None
        if transport is not None:
            self.last_counters = dict(transport.counters)
            transport.shutdown()
        super().close(ctx)
        dirs, ctx.spill_dirs = ctx.spill_dirs, []
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    def _transport_for(self, ctx: ShardedContext, n_records: int):
        """The job's transport, started on first use — or None when the
        input is too small (and no earlier, larger batch started one)
        or the platform cannot fork."""
        if (ctx.transport is None and n_records >= self.min_records
                and "fork" in multiprocessing.get_all_start_methods()):
            # Registered before start() so close() reaps a transport
            # that failed half-way through starting.
            ctx.transport = self._new_transport()
            plan = ctx.plan
            ctx.transport.start(plan.spec, plan.strategy, plan.is_mars)
        return ctx.transport

    def record_count(self, ctx, handle) -> int:
        if isinstance(handle, _SpilledRuns):
            return handle.emit_count
        return len(handle)

    # -- split sizing and spill wiring ----------------------------------

    def _split_slices(self, d_in: KeyValueSet) -> list[tuple[int, int]]:
        """Contiguous map splits of at most ``split_bytes`` input bytes
        each (always >= 1 record per split, >= 1 split)."""
        n = len(d_in)
        if n == 0:
            return [(0, 0)]
        keys, vals = d_in.keys, d_in.values
        limit = self.split_bytes
        slices: list[tuple[int, int]] = []
        lo = 0
        acc = 0
        for i in range(n):
            c = record_cost(keys[i], vals[i])
            if acc > 0 and acc + c > limit:
                slices.append((lo, i))
                lo = i
                acc = 0
            acc += c
        slices.append((lo, n))
        return slices

    def _spill_config(self, ctx, *, batch) -> list | None:
        """Worker spill settings ``[run_dir, budget]`` for one Map, or
        None.  Per-split spill applies to single-shot jobs with a
        Reduce tail under the spill store: strategy-``None`` jobs
        download the Map output directly, and streamed batches flow
        into the coordinator's sink store instead."""
        plan = ctx.plan
        settings = plan.settings
        if (batch is not None or plan.strategy is None
                or settings["store"] != SpillStore.name):
            return None
        run_dir = tempfile.mkdtemp(prefix="repro-spill-",
                                   dir=settings["spill_dir"])
        ctx.spill_dirs.append(run_dir)
        budget = settings["memory_budget"] or DEFAULT_BUDGET
        return [run_dir, max(1, budget // self.workers)]

    # -- phases ---------------------------------------------------------

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        transport = self._transport_for(ctx, len(d_in))
        if transport is None:
            return super().map_phase(ctx, d_in, tr, batch=batch)

        spill = self._spill_config(ctx, batch=batch)
        slices = self._split_slices(d_in)
        keys, vals = d_in.keys, d_in.values
        tasks = []
        for shard, (lo, hi) in enumerate(slices):
            payload = {"pairs": list(zip(keys[lo:hi], vals[lo:hi]))}
            if spill is not None:
                payload["spill"] = spill
            tasks.append((shard, payload))

        before = dict(transport.counters)
        results = self._run(ctx, tr, "map", tasks)
        if spill is not None:
            handle = _SpilledRuns([r["spilled"] for r in results],
                                  self.workers)
            emit_count = handle.emit_count
        else:
            handle = KeyValueSet()
            append = handle.append_unchecked
            for r in results:  # split order = input order
                for k, v in r["pairs"]:
                    append(k, v)
            emit_count = len(handle)
        stats = self._phase_stats(ctx, before, records_in=len(d_in),
                                  records_out=emit_count,
                                  tasks=len(results))
        attrs = {"batch": batch} if batch is not None else {}
        tr.kernel("map_kernel", stats, **attrs)
        return handle, stats

    def shuffle_phase(self, ctx, inter, tr, label):
        if not isinstance(inter, _SpilledRuns):
            return super().shuffle_phase(ctx, inter, tr, label)
        # Per-split runs: merge-stream them split-major, exactly the
        # group order the in-memory shuffle would produce.
        with tr.span("shuffle_exec", records=inter.emit_count) as sp:
            if sp is not None:
                sp.attrs["spill_runs"] = inter.stats.spill_runs
                sp.attrs["spilled_bytes"] = inter.stats.spilled_bytes
            inter.stats.merge_fan_in = inter.stats.spill_runs
        grouped = StoreGroups(merge_runs(inter.run_lists), inter.stats)
        return grouped, 0.0, None

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        transport = ctx.transport
        if transport is None:
            # Map ran in-process: finish the job the same way.
            return super().reduce_phase(ctx, grouped, tr,
                                        include_grid=include_grid)
        ctx.plan.check_reduce()
        lazy = isinstance(grouped, StoreGroups)
        if lazy:
            # A merge stream has unknown length: the transport pulls
            # one chunk per free worker, so the grouped intermediate
            # stays out-of-core end to end.
            tasks = _chunks(grouped, STREAM_REDUCE_BATCH)
        else:
            n_ranges = max(1, min(len(grouped),
                                  self.workers * REDUCES_PER_WORKER))
            tasks = [(shard, {"groups": grouped[lo:hi]})
                     for shard, (lo, hi) in enumerate(
                         shard_slices(len(grouped), n_ranges))]

        before = dict(transport.counters)
        results = self._run(ctx, tr, "reduce", tasks)
        out = KeyValueSet()
        append = out.append_unchecked
        for r in results:  # range order = sorted key order
            for k, v in r["pairs"]:
                append(k, v)
        stats = self._phase_stats(
            ctx, before,
            records_in=sum(r["profile"]["records_in"] for r in results),
            records_out=len(out), tasks=len(results))
        if lazy and grouped.stats is not None:
            for name, v in grouped.stats.as_extra().items():
                stats.count(name, v)
        tr.kernel("reduce_kernel", stats)
        return out, stats

    # -- transport calls and telemetry ----------------------------------

    def _run(self, ctx, tr, phase: str, tasks) -> list[dict]:
        """Run one phase on the transport; returns the accepted replies
        in shard order, their profiles banked on the context and
        merged into the tracer as per-worker tracks (shard index =
        track id)."""
        done = ctx.transport.run_phase(phase, tasks)
        results = [done[shard] for shard in range(len(done))]
        for shard, r in enumerate(results):
            p = ShardProfile(phase=phase, shard=shard, **r["profile"])
            ctx.profiles.append(p)
            tr.worker_span(
                p.shard, f"{p.phase}_shard", p.start_ns, p.end_ns,
                pid=p.pid, records_in=p.records_in,
                records_out=p.records_out, distinct_keys=p.distinct_keys,
                spill_runs=p.spill_runs if p.spill_runs else None,
                spilled_bytes=p.spilled_bytes if p.spill_runs else None,
            )
        return results

    def finish_telemetry(self, ctx: ShardedContext):
        """Shard profiles collected this job (empty -> None: in-process
        fallback runs have no cross-process telemetry to report)."""
        return ctx.profiles or None

    def _phase_stats(self, ctx, before: dict[str, int], *,
                     records_in: int, records_out: int,
                     tasks: int) -> KernelStats:
        """Zero cycles (functional backend), throughput counters, the
        task-grid shape, and this phase's fault-recovery activity, all
        named after the backend (``dist_tasks``, ``parallel_workers``,
        ...)."""
        name = self.name
        stats = KernelStats(threads_per_block=ctx.plan.threads_per_block)
        stats.count("fast_records_in", records_in)
        stats.count("fast_records_out", records_out)
        stats.count(f"{name}_tasks", tasks)
        stats.count(f"{name}_workers", self.workers)
        counters = ctx.transport.counters
        for key in _RECOVERY_COUNTERS:
            delta = counters.get(key, 0) - before.get(key, 0)
            if delta:
                stats.count(f"{name}_{key}", delta)
        return stats
