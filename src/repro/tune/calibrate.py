"""Runtime calibration: refine the cost model from the run ledger.

The factory constants in :mod:`repro.tune.cost` were fit on one
device configuration and one workload sweep; real runs drift.  Every
tuned run records its predicted cost next to the measured one
(``tuner_predicted_cost`` / ``sim_cycles`` / ``wall_s`` in
``.repro/runs.jsonl``), so this module can close the loop without any
extra measurement:

* :func:`load_calibration` reads the ledger and turns matching
  predicted-vs-actual pairs into bounded multiplicative corrections
  per knob (``mode:G``, ``strategy:BR``, ``backend:columnar`` …) —
  the geometric mean of actual/predicted ratios, clamped so one
  outlier line can never swing a decision by more than 2x;
* :func:`lookup_history` answers the nearest-neighbour question: has
  this exact input (same workload + input digest — or failing that,
  the same workload at a similar size) been run before, and which
  configuration measured fastest?  When the ledger has already swept
  an input, remembering beats modelling.

Everything here is read-only and failure-tolerant: a missing or
corrupt ledger degrades to factory constants, never an error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ..obs import ledger as ledger_mod
from .cost import CostConstants

#: A correction is the geometric mean of actual/predicted ratios,
#: clamped to this band so a few bad lines cannot invert a decision.
CORRECTION_MIN = 0.5
CORRECTION_MAX = 2.0

#: Minimum matching ledger lines before a knob gets corrected at all.
MIN_SAMPLES = 2

#: "Similar size" for the nearest-neighbour fallback: record counts
#: within this factor of each other.
NEIGHBOUR_SIZE_FACTOR = 2.0


@dataclass(frozen=True)
class CalibrationState:
    """The ledger's contribution to one tuning decision."""

    #: Knob key -> bounded multiplicative correction (1.0 = factory).
    corrections: dict = field(default_factory=dict)
    #: All parseable ledger records (newest last), for history lookups.
    records: list = field(default_factory=list)
    #: How many predicted-vs-actual pairs informed the corrections.
    samples: int = 0

    def constants(self, base: CostConstants | None = None) -> CostConstants:
        """Factory (or given) constants with these corrections applied."""
        return (base or CostConstants()).with_corrections(self.corrections)


def _actual_cost(rec: dict) -> float | None:
    """The measured quantity the prediction targeted.

    The sim backend's objective is simulated cycles; every functional
    backend's objective is wall seconds.  Mirrors the decision layer.
    """
    if rec.get("backend") == "sim":
        value = rec.get("sim_cycles")
    else:
        value = rec.get("wall_s")
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


def _knob_keys(rec: dict) -> list[str]:
    """The correction keys one ledger record votes on."""
    keys = []
    mode = rec.get("mode")
    if isinstance(mode, str) and mode:
        keys.append(f"mode:{mode}")
    strategy = rec.get("strategy")
    if isinstance(strategy, str) and strategy:
        keys.append(f"strategy:{strategy}")
    backend = rec.get("backend")
    if isinstance(backend, str) and backend:
        keys.append(f"backend:{backend}")
    return keys


def compute_corrections(records: list[dict]) -> tuple[dict, int]:
    """(corrections, sample count) from predicted-vs-actual pairs.

    Only tuned records carry ``tuner_error`` (and only when the
    prediction's objective matched the unit the run measured — the
    ledger gates that); untuned and pre-tuner (schema 1) lines simply
    contribute nothing — the reader is version-tolerant by ignoring
    what a line does not have.
    """
    votes: dict[str, list[float]] = {}
    samples = 0
    for rec in records:
        if not isinstance(rec, dict) or not rec.get("tuned"):
            continue
        predicted = rec.get("tuner_predicted_cost")
        if not isinstance(predicted, (int, float)) or predicted <= 0:
            continue
        error = rec.get("tuner_error")
        if not isinstance(error, (int, float)):
            continue
        ratio = 1.0 + float(error)
        if not math.isfinite(ratio) or ratio <= 0:
            continue
        samples += 1
        for key in _knob_keys(rec):
            votes.setdefault(key, []).append(ratio)
    corrections = {}
    for key, ratios in votes.items():
        if len(ratios) < MIN_SAMPLES:
            continue
        log_mean = sum(math.log(r) for r in ratios) / len(ratios)
        corrections[key] = min(
            CORRECTION_MAX, max(CORRECTION_MIN, math.exp(log_mean))
        )
    return corrections, samples


#: Parsed-ledger cache: resolved path -> ((mtime, size), CalibrationState).
#: Every job would otherwise re-read and re-parse the whole ledger to
#: make its tuning decision — on a tiny input that parse dominates the
#: job itself (the <5% overhead guard in tests/tune pins this).
_CACHE: dict[str, tuple[tuple, CalibrationState]] = {}


def _ledger_stamp(path: str) -> tuple:
    try:
        st = os.stat(path)
    except OSError:
        return (0.0, -1)
    return (st.st_mtime_ns, st.st_size)


def load_calibration(path: str | None = None) -> CalibrationState:
    """Read the ledger (honouring the env) into a CalibrationState.

    Cached on the file's (mtime, size): repeated decisions against an
    unchanged ledger — every job in a sweep — parse it once.
    """
    resolved = path if path is not None else ledger_mod.ledger_path()
    stamp = _ledger_stamp(resolved)
    cached = _CACHE.get(resolved)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    records = ledger_mod.read_ledger(resolved)
    corrections, samples = compute_corrections(records)
    state = CalibrationState(
        corrections=corrections, records=records, samples=samples
    )
    _CACHE.clear()  # one entry is enough; never grow unboundedly
    _CACHE[resolved] = (stamp, state)
    return state


# ----------------------------------------------------------------------
# Nearest-neighbour history
# ----------------------------------------------------------------------


def _config_key(rec: dict) -> tuple:
    return (
        rec.get("mode"),
        rec.get("strategy"),
        rec.get("backend"),
        rec.get("workers"),
    )


def lookup_history(
    records: list[dict],
    workload: str,
    input_digest: str,
    *,
    records_in: int | None = None,
) -> dict | None:
    """Fastest previously measured record for this input, if any.

    Exact matches (same workload **and** input digest) win; when none
    exist, any run of the same workload within
    :data:`NEIGHBOUR_SIZE_FACTOR` of the record count stands in.
    Within the chosen tier, distinct configurations compete on their
    best measured cost and the winner's record is returned (newest
    first on ties).  ``None`` when the ledger has nothing relevant.
    """
    exact: list[dict] = []
    near: list[dict] = []
    for rec in records:
        if not isinstance(rec, dict) or rec.get("workload") != workload:
            continue
        if _actual_cost(rec) is None:
            continue
        if rec.get("input_digest") == input_digest:
            exact.append(rec)
        elif records_in:
            n = rec.get("records_in")
            if isinstance(n, (int, float)) and n > 0:
                factor = max(n, records_in) / max(1, min(n, records_in))
                if factor <= NEIGHBOUR_SIZE_FACTOR:
                    near.append(rec)
    pool = exact or near
    if not pool:
        return None
    best: dict[tuple, dict] = {}
    for rec in pool:
        key = _config_key(rec)
        cost = _actual_cost(rec)
        prev = best.get(key)
        if prev is None or cost <= _actual_cost(prev):
            best[key] = rec
    return min(best.values(), key=_actual_cost)


def distinct_configs(records: list[dict], workload: str,
                     input_digest: str) -> int:
    """How many distinct configurations the ledger measured for this
    exact input — the decision layer trusts history over the model
    only when the input was actually swept (>= 2 configs)."""
    seen = set()
    for rec in records:
        if not isinstance(rec, dict) or rec.get("workload") != workload:
            continue
        if rec.get("input_digest") != input_digest:
            continue
        if _actual_cost(rec) is None:
            continue
        seen.add(_config_key(rec))
    return len(seen)
