"""``repro.backend`` — pluggable execution backends behind one core.

The framework's phases (upload -> Map -> Shuffle -> Reduce ->
download; Section IV-C's five memory modes x two reduce strategies)
are orthogonal to *how* they execute.  A
:class:`~repro.backend.plan.JobPlan` describes a job; an
:class:`~repro.backend.base.ExecutionBackend` executes its phases:

* ``"sim"``  — :class:`SimBackend`: the cycle-accurate discrete-event
  simulator.  Use it for every timing figure; it is the paper.
* ``"fast"`` — :class:`FastBackend`: a dict-based functional executor
  that skips warp-level simulation.  Orders of magnitude faster; use
  it for correctness runs, large inputs and development loops.
* ``"parallel"`` — :class:`ParallelBackend`: the fast executor
  sharded across a forked ``multiprocessing`` pool.  ``"parallel:N"``
  pins the worker count; plain ``"parallel"`` takes the ``workers``
  setting (``$REPRO_WORKERS``) and defaults to the CPU count.
* ``"columnar"`` — :class:`ColumnarBackend`: the fast executor pinned
  to the vectorized columnar path (batched numpy Map/Shuffle/Reduce
  via each workload's ``map_batch``/``reduce_batch`` kernels, scalar
  fallback otherwise).  Equivalent to ``FastBackend(columnar=True)``
  or ``$REPRO_COLUMNAR=1``.
* ``"dist"`` — :class:`DistributedBackend`: the fast executor run as
  a coordinator over socket-connected worker processes, with
  worker-death re-execution, speculative straggler duplicates, and
  scriptable fault injection (:class:`repro.dist.FaultPlan`).
  ``"dist:N"`` pins the worker count, like ``"parallel:N"``.

``"parallel"`` and ``"dist"`` are one sharded backend
(:mod:`repro.backend.sharded`: byte-split Map tasks, key-range Reduce
tasks, output byte-identical to ``"fast"``) over two transports.

Select per call (``run_job(..., backend="fast")``), or process-wide
with the ``backend`` setting (:mod:`repro.config`; ``$REPRO_BACKEND``),
which a driver called with ``backend=None`` takes.
"""

from __future__ import annotations

from ..config import SHARDED_BACKENDS, resolve
from .base import ExecutionBackend
from .core import execute_plan, execute_streamed
from .distributed import DistributedBackend
from .fast import ColumnarBackend, FastBackend
from .parallel import ParallelBackend
from .plan import ENGINE_MARS, ENGINE_SHARED, BatchPolicy, JobPlan
from .sim import SimBackend

#: Registry of the shipped backends, by name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    FastBackend.name: FastBackend,
    ParallelBackend.name: ParallelBackend,
    ColumnarBackend.name: ColumnarBackend,
    DistributedBackend.name: DistributedBackend,
}

def get_backend(backend: str | ExecutionBackend | None = None
                ) -> ExecutionBackend:
    """Resolve a backend argument to a live instance.

    Instances pass through; ``None`` takes the ``backend`` setting
    (:mod:`repro.config`: ``$REPRO_BACKEND``, default ``"sim"``);
    strings are looked up in :data:`BACKENDS`.  ``"parallel:N"`` /
    ``"dist:N"`` pin the worker count of the parallel / distributed
    backend, which otherwise takes the ``workers`` setting.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    settings = resolve({"backend": backend}, names=("backend", "workers"))
    base, _, count = settings["backend"].partition(":")
    if base in SHARDED_BACKENDS:
        return BACKENDS[base](
            workers=int(count) if count else settings["workers"])
    return BACKENDS[base]()


__all__ = [
    "BACKENDS",
    "BatchPolicy",
    "ColumnarBackend",
    "DistributedBackend",
    "ENGINE_MARS",
    "ENGINE_SHARED",
    "ExecutionBackend",
    "FastBackend",
    "JobPlan",
    "ParallelBackend",
    "SimBackend",
    "execute_plan",
    "execute_streamed",
    "get_backend",
]
