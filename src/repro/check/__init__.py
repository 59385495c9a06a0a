"""repro.check — an opt-in sanitizer over the simulated GPU.

Four detectors watch a job as the discrete-event engine runs it:

* **race** — GRace-style vector-clock happened-before checking of
  shared-memory accesses between warps (sync edges from barriers,
  shared atomics, and the framework's declared flag words);
* **collector** — the double-ended output stack's invariants
  (``left + right <= capacity``, disjoint reservations, conserving
  flushes, in-bounds stage-out);
* **liveness** — conclusive deadlock detection within one poll
  interval;
* **atomics** — global tail reservations replayed for linearizability
  (duplicate- and gap-free chains per address).

Enable with ``run_job(..., check=True)`` (any driver), ``--check`` on
``repro-trace``/``repro-bench``, or ``REPRO_CHECK=1``.  Findings form
a :class:`CheckReport` attached to the job result; in strict mode a
non-empty report raises :class:`~repro.errors.CheckError`.  See
``docs/CHECKING.md``.
"""

from ..errors import CheckError
from .config import CheckConfig, resolve_check
from .report import CheckReport, Finding
from .sanitizer import LaunchChecker, Sanitizer

__all__ = [
    "CheckConfig",
    "CheckError",
    "CheckReport",
    "Finding",
    "LaunchChecker",
    "Sanitizer",
    "resolve_check",
]
