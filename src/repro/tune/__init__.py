"""``repro.tune`` — the cost-model autotuner.

The paper's own Figures 5–8 show that no single configuration wins
everywhere: the best memory mode (G/GT/SI/SO/SIO) and reduce strategy
(TR/BR) cross over with key cardinality, value width and skew, and the
repo has since grown more performance knobs (backend, columnar
batching, spill budget, worker count, split bytes) that used to be
picked by hand.  This package picks them from input statistics:

* :mod:`repro.tune.profiler` — a cheap bounded-sample input profiler
  producing :class:`InputStats` (record count, size distribution, key
  cardinality estimate, value width, skew, numeric-vs-ragged
  detection);
* :mod:`repro.tune.cost` — an analytic cost model pricing each
  candidate configuration with the paper's shared-vs-global
  access-cost structure plus per-knob calibration constants;
* :mod:`repro.tune.calibrate` — refines those constants from matching
  ``.repro/runs.jsonl`` ledger records and answers nearest-neighbour
  history lookups for inputs the ledger has already seen;
* :mod:`repro.tune.decide` — the decision layer: profile, consult
  history, price candidates, return a :class:`TunerDecision` that the
  backends' ``resolve_auto`` and the drivers' ``tune=True`` path
  apply;
* :mod:`repro.tune.bench` — the ``repro-bench autotune`` workload
  matrix: tuned choice vs. the exhaustive fixed sweep, emitting
  ``BENCH_autotune.json``.
"""

from __future__ import annotations

from .calibrate import CalibrationState, load_calibration, lookup_history
from .cost import Candidate, CostConstants, CostModel, estimate_cycles
from .decide import (
    TunerDecision,
    decide_execution,
    decide_modes,
)
from .profiler import InputStats, profile_input

__all__ = [
    "CalibrationState",
    "Candidate",
    "CostConstants",
    "CostModel",
    "InputStats",
    "TunerDecision",
    "decide_execution",
    "decide_modes",
    "estimate_cycles",
    "load_calibration",
    "lookup_history",
    "profile_input",
]
