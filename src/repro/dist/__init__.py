"""Distributed execution machinery: coordinator, workers, wire, faults.

This package holds everything the
:class:`~repro.backend.distributed.DistributedBackend` needs to cross
the process boundary the MapReduce way — a coordinator scheduling
tasks over socket-connected worker processes, surviving worker death
by re-execution and stragglers by speculation — plus the
:class:`FaultPlan` hook that makes every failure mode scriptable from
tests.  The task bodies (:mod:`repro.dist.tasks`) are shared with the
parallel backend's fork pool.  Nothing here imports
:mod:`repro.backend`; the dependency points one way.
"""

from .coordinator import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MIN_STRAGGLE_S,
    DEFAULT_STRAGGLER_FACTOR,
    Cluster,
    DistEvent,
)
from .faults import KILL_EXIT, FaultPlan, WorkerFault
from .wire import ConnectionClosed, FrameReader, decode, encode

__all__ = [
    "Cluster",
    "ConnectionClosed",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MIN_STRAGGLE_S",
    "DEFAULT_STRAGGLER_FACTOR",
    "DistEvent",
    "FaultPlan",
    "FrameReader",
    "KILL_EXIT",
    "WorkerFault",
    "decode",
    "encode",
]
