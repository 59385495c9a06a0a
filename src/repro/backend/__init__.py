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
* ``"columnar"`` — :class:`ColumnarBackend`: the fast executor pinned
  to the vectorized columnar path (batched numpy Map/Shuffle/Reduce
  via each workload's ``map_batch``/``reduce_batch`` kernels, scalar
  fallback otherwise).  Equivalent to ``FastBackend(columnar=True)``.
* ``"dist"`` — :class:`DistributedBackend`: the fast executor run as
  a coordinator over socket-connected worker processes, with
  worker-death re-execution, speculative straggler duplicates, and
  scriptable fault injection (:class:`repro.dist.FaultPlan`).  Its
  byte-split Map tasks and key-range Reduce tasks keep the output
  byte-identical to ``"fast"``.  ``"dist:N"`` pins the worker count;
  plain ``"dist"`` runs one worker per CPU.

Select per call (``run_job(..., backend="fast")``), or process-wide
with the ``backend`` setting (:mod:`repro.config`; ``$REPRO_BACKEND``),
which a driver called with ``backend=None`` takes.
"""

from __future__ import annotations

from ..config import resolve
from .base import ExecutionBackend
from .core import execute_plan
from .distributed import DistributedBackend
from .fast import ColumnarBackend, FastBackend
from .plan import ENGINE_MARS, ENGINE_SHARED, BatchPolicy, JobPlan
from .sim import SimBackend

#: Registry of the shipped backends, by name.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    FastBackend.name: FastBackend,
    ColumnarBackend.name: ColumnarBackend,
    DistributedBackend.name: DistributedBackend,
}

def get_backend(backend: str | ExecutionBackend | None = None
                ) -> ExecutionBackend:
    """Resolve a backend argument to a live instance.

    Instances pass through; ``None`` takes the ``backend`` setting
    (:mod:`repro.config`: ``$REPRO_BACKEND``, default ``"sim"``);
    strings are looked up in :data:`BACKENDS`.  ``"dist:N"`` pins the
    worker count of the distributed backend.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    return _instantiate(
        resolve({"backend": backend}, names=("backend",))["backend"])


def backend_for(setting: str | ExecutionBackend) -> ExecutionBackend:
    """The live backend for an already-resolved ``backend`` setting
    (``JobPlan.settings["backend"]``), with no second parse: a name is
    instantiated here, and the instance still passes through a
    call-time lookup of :func:`get_backend`, so a wrapper installed
    there sees every driver's backend."""
    if not isinstance(setting, ExecutionBackend):
        setting = _instantiate(setting)
    return get_backend(setting)


def _instantiate(name: str) -> ExecutionBackend:
    base, _, count = name.partition(":")
    if count:
        return BACKENDS[base](workers=int(count))
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
    "SimBackend",
    "backend_for",
    "execute_plan",
    "get_backend",
]
