"""Distributed backend: the sharded skeleton over socket workers.

:class:`DistributedBackend` is
:class:`~repro.backend.sharded.ShardedBackend` with the
:class:`~repro.dist.Cluster` as transport — the MapReduce
master/worker shape, scaled down to one host so the whole
fault-tolerance story is testable in CI.  Workers are processes
connected by localhost sockets; the coordinator re-executes the task
of a worker that dies, speculatively duplicates stragglers, and keeps
the first result per ``(phase, shard)``.  Scripted
:class:`~repro.dist.FaultPlan` faults make every failure mode
reproducible from tests.

Workers ship plain pairs, so the output is byte-identical to the fast
backend for every workload, float BR folds included.  That identity
is what makes recovery safe: a retried or speculated run's bytes
equal the faultless run's bytes, which the differential suite and the
chaos fuzzer assert.
"""

from __future__ import annotations

from typing import Any

from ..dist import Cluster, FaultPlan
from .sharded import ShardedBackend


class DistributedBackend(ShardedBackend):
    """Coordinator/worker execution over localhost sockets, with
    retry, speculation and scriptable fault injection."""

    name = "dist"

    def __init__(self, workers: int | None = None,
                 min_records: int | None = None,
                 fault_plan: FaultPlan | None = None,
                 *, deterministic: bool = False,
                 split_bytes: int | None = None,
                 straggler_factor: float | None = None,
                 min_straggle_s: float | None = None):
        super().__init__(workers, min_records, split_bytes)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.deterministic = deterministic
        self.straggler_factor = straggler_factor
        self.min_straggle_s = min_straggle_s
        #: Scheduling events of the most recently closed job (golden
        #: traces read these after ``run_job`` returns).
        self.last_events: list = []

    def _new_transport(self) -> Cluster:
        kwargs: dict[str, Any] = {}
        if self.straggler_factor is not None:
            kwargs["straggler_factor"] = self.straggler_factor
        if self.min_straggle_s is not None:
            kwargs["min_straggle_s"] = self.min_straggle_s
        return Cluster(self.workers, self.fault_plan,
                       deterministic=self.deterministic, **kwargs)

    def close(self, ctx) -> None:
        if ctx.transport is not None:
            self.last_events = list(ctx.transport.events)
        super().close(ctx)
