"""Parallel backend: the sharded skeleton over a fork pool.

:class:`ParallelBackend` is :class:`~repro.backend.sharded.ShardedBackend`
with the simplest transport: a ``multiprocessing`` pool forked with
the job's spec installed (:func:`repro.dist.tasks.configure` as the
pool initializer), so user Map/Reduce functions — test closures
included — reach the workers without pickling; only split data and
results cross the process boundary.  There is no fault tolerance: a
task that raises fails the job, as it would in-process.

Splits, reduce ranges, spill wiring and telemetry are the skeleton's,
so output is byte-identical to the fast backend (float BR included).
"""

from __future__ import annotations

import multiprocessing
from collections import deque

from ..dist.tasks import configure, run_task
from .sharded import ShardedBackend


class _ForkPool:
    """Transport: tasks go to a fork pool, a bounded window at a time
    (so a lazy task stream is never drained wholesale into the pool's
    queue), and replies come back keyed by shard."""

    def __init__(self, workers: int):
        self.workers = workers
        self.counters = {"map_tasks": 0, "reduce_tasks": 0}
        self._pool = None

    def start(self, spec, strategy, is_mars) -> None:
        self._pool = multiprocessing.get_context("fork").Pool(
            self.workers, initializer=configure,
            initargs=(spec, strategy, is_mars),
        )

    def run_phase(self, phase: str, tasks) -> dict[int, dict]:
        done: dict[int, dict] = {}
        inflight: deque = deque()
        for shard, payload in tasks:
            if len(inflight) >= 2 * self.workers:
                s, res = inflight.popleft()
                done[s] = res.get()
            msg = dict(payload, shard=shard)
            inflight.append(
                (shard, self._pool.apply_async(run_task, (phase, msg)))
            )
            self.counters[f"{phase}_tasks"] += 1
        for s, res in inflight:
            done[s] = res.get()
        return done

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()


class ParallelBackend(ShardedBackend):
    """Shard fast-backend execution across a process pool."""

    name = "parallel"

    def __init__(self, workers: int | None = None,
                 min_records: int | None = None):
        super().__init__(workers, min_records, None)

    def _new_transport(self) -> _ForkPool:
        return _ForkPool(self.workers)
