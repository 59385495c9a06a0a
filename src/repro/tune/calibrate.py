"""Runtime calibration: refine the cost model from the run ledger.

The factory constants in :mod:`repro.tune.cost` were fit on one
device configuration and one workload sweep; real runs drift.  Every
tuned run records its predicted cost next to the measured one
(``tuner_predicted_cost`` / ``sim_cycles`` / ``wall_s`` in
``.repro/runs.jsonl``), so this module can close the loop without any
extra measurement.  :func:`load_calibration` returns a
:class:`CalibrationState` holding two things:

* bounded multiplicative **corrections** per knob (``mode:G``,
  ``strategy:BR``, ``backend:columnar`` …) — the geometric mean of
  actual/predicted ratios, clamped so one outlier line can never
  swing a decision by more than 2x.  Only a running
  ``(Σ log ratio, count)`` per knob is kept;
* a **history** index, ``(workload, input digest) -> {config key:
  (cost, record)}``: the fastest measured run of each configuration
  on each exact input (the newest wins at equal cost).  When the
  ledger has already swept an input, remembering beats modelling.

Every job appends a ledger line, so the ledger is read incrementally:
one reader per process remembers the byte offset it has consumed and
decodes only the complete lines appended since, folding each into the
sums and the index.  A decision therefore costs O(new lines), not
O(ledger).  The reader starts again from offset 0 when the file
shrinks, is replaced (its ``(st_dev, st_ino)`` changes) or goes
missing.  A returned state is a snapshot: later appends never change
it.

Everything here is read-only and failure-tolerant: a missing or
corrupt ledger degrades to factory constants, never an error.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

from ..obs import ledger as ledger_mod
from .cost import CostConstants

#: A correction is the geometric mean of actual/predicted ratios,
#: clamped to this band so a few bad lines cannot invert a decision.
CORRECTION_MIN = 0.5
CORRECTION_MAX = 2.0

#: Minimum matching ledger lines before a knob gets corrected at all.
MIN_SAMPLES = 2


@dataclass(frozen=True)
class CalibrationState:
    """The ledger's contribution to one tuning decision."""

    #: Knob key -> bounded multiplicative correction (1.0 = factory).
    corrections: dict = field(default_factory=dict)
    #: How many predicted-vs-actual pairs informed the corrections.
    samples: int = 0
    #: (workload, input digest) -> {config key: (cost, record)}, the
    #: fastest measured record per configuration of that exact input.
    history: dict = field(default_factory=dict)
    #: Parseable ledger lines folded into this state.
    lines: int = 0

    def constants(self, base: CostConstants | None = None) -> CostConstants:
        """Factory (or given) constants with these corrections applied."""
        return (base or CostConstants()).with_corrections(self.corrections)

    @classmethod
    def from_records(cls, records) -> "CalibrationState":
        """The state a ledger holding exactly ``records`` calibrates to."""
        fold = _Fold()
        for rec in records:
            fold.add(rec)
        return fold.snapshot()


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


def _error_ratio(rec: dict) -> float | None:
    """actual/predicted of a tuned record, or None.

    Only tuned records carry ``tuner_error`` (and only when the
    prediction's objective matched the unit the run measured — the
    ledger gates that); untuned and pre-tuner (schema 1) lines simply
    contribute nothing — the reader is version-tolerant by ignoring
    what a line does not have.
    """
    if not rec.get("tuned"):
        return None
    predicted = rec.get("tuner_predicted_cost")
    if not isinstance(predicted, (int, float)) or predicted <= 0:
        return None
    error = rec.get("tuner_error")
    if not isinstance(error, (int, float)):
        return None
    ratio = 1.0 + float(error)
    if not math.isfinite(ratio) or ratio <= 0:
        return None
    return ratio


def _config_key(rec: dict) -> tuple:
    return (
        rec.get("mode"),
        rec.get("strategy"),
        rec.get("backend"),
        rec.get("workers"),
    )


class _Fold:
    """Running calibration sums and history index over ledger records.

    Inner history dicts are replaced, never mutated, so a snapshot only
    needs a shallow copy of the outer index to stay unchanged.
    """

    def __init__(self) -> None:
        #: Knob key -> [Σ log(actual/predicted), count].
        self.log_sums: dict[str, list] = {}
        self.samples = 0
        self.history: dict[tuple, dict] = {}
        self.lines = 0

    def add(self, rec: dict) -> None:
        self.lines += 1
        ratio = _error_ratio(rec)
        if ratio is not None:
            self.samples += 1
            log_ratio = math.log(ratio)
            for key in _knob_keys(rec):
                acc = self.log_sums.setdefault(key, [0.0, 0])
                acc[0] += log_ratio
                acc[1] += 1
        cost = _actual_cost(rec)
        if cost is None:
            return
        where = (rec.get("workload"), rec.get("input_digest"))
        key = _config_key(rec)
        try:
            configs = self.history.get(where, {})
            prev = configs.get(key)
        except TypeError:  # a list or object where a name belongs
            return
        if prev is None or cost <= prev[0]:
            self.history[where] = {**configs, key: (cost, rec)}

    def snapshot(self) -> CalibrationState:
        corrections = {
            key: min(CORRECTION_MAX, max(CORRECTION_MIN, math.exp(s / n)))
            for key, (s, n) in self.log_sums.items()
            if n >= MIN_SAMPLES
        }
        return CalibrationState(
            corrections=corrections, samples=self.samples,
            history=dict(self.history), lines=self.lines,
        )


class _LedgerReader:
    """Incremental :class:`CalibrationState` of one ledger file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._reset(None)

    def _reset(self, ident) -> None:
        self.ident = ident
        self.offset = 0
        self.fold = _Fold()
        self.state = CalibrationState()

    def refresh(self) -> CalibrationState:
        with self._lock:
            try:
                with open(self.path, "rb") as fh:
                    st = os.fstat(fh.fileno())
                    ident = (st.st_dev, st.st_ino)
                    if ident != self.ident or st.st_size < self.offset:
                        self._reset(ident)
                    if st.st_size == self.offset:
                        return self.state
                    fh.seek(self.offset)
                    data = fh.read()
            except OSError:
                if self.ident is not None:
                    self._reset(None)
                return self.state
            records, used = ledger_mod.decode_lines(data)
            self.offset += used
            if records:
                for rec in records:
                    self.fold.add(rec)
                self.state = self.fold.snapshot()
            return self.state


#: The reader of the ledger last asked for — one entry is enough, and
#: never grows unboundedly.
_READER: _LedgerReader | None = None


def load_calibration(path: str | None = None) -> CalibrationState:
    """The ledger's (honouring the env) current CalibrationState.

    Repeated calls against an unchanged ledger return the same object;
    after appends, only the new lines are decoded.
    """
    global _READER
    resolved = path if path is not None else ledger_mod.ledger_path()
    reader = _READER
    if reader is None or reader.path != resolved:
        reader = _READER = _LedgerReader(resolved)
    return reader.refresh()
