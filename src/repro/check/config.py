"""Sanitizer configuration.

The sanitizer is opt-in everywhere: ``run_job(..., check=True)`` (or
any driver's ``check=`` argument), ``--check`` on the CLIs, or
``REPRO_CHECK=1`` in the environment — the ``check`` setting of
:mod:`repro.config`.  ``resolve_check`` maps a setting onto either
``None`` (off) or a frozen :class:`CheckConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import resolve


@dataclass(frozen=True)
class CheckConfig:
    """Which detectors run, and what happens on a finding.

    ``strict=True`` raises :class:`~repro.errors.CheckError` at the
    end of a job with findings; ``strict=False`` only attaches the
    :class:`~repro.check.report.CheckReport` to the
    :class:`~repro.framework.job.JobResult`.
    """

    race: bool = True
    collector: bool = True
    liveness: bool = True
    atomics: bool = True
    strict: bool = True
    #: Cap on recorded findings (detectors keep running but stop
    #: appending; the report is marked ``truncated``).
    max_findings: int = 25


def resolve_check(check=None):
    """Normalise a ``check`` setting to CheckConfig | None.

    ``None`` is off; booleans toggle the default config; strings are
    parsed like ``$REPRO_CHECK``; a :class:`CheckConfig` passes through
    unchanged.
    """
    if check is None or isinstance(check, CheckConfig):
        return check
    mode = resolve({"check": check}, names=("check",))["check"]
    if isinstance(mode, CheckConfig):
        return mode
    return None if mode == "off" else CheckConfig(strict=mode == "strict")
