"""Decision layer: golden choices, sentinel semantics, history."""

import json
import os

import pytest

from repro.config import resolve
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.gpu.config import DeviceConfig
from repro.obs.ledger import digest_input
from repro.tune.calibrate import CalibrationState
from repro.tune.decide import (
    TPB_CANDIDATES,
    decide_execution,
    decide_modes,
)
from repro.tune.synthetic import SYNTHETIC_CASES, synthetic_case

CFG = DeviceConfig.small(4)

#: The factory-calibrated model's pick per synthetic shape at
#: DeviceConfig.small(4) — the golden decision table.  Pinned against
#: the measured exhaustive sweep in BENCH_autotune.json: every one of
#: these choices is within the 10% per-case bar of the measured best.
#: A constants change that silently degrades a decision fails here
#: first (regenerate with scripts/calibrate_tuner.py, then re-check
#: the bench gates before re-pinning).
GOLDEN = {
    "uniform": "GT/TR@64",
    "hotkey": "G/BR@64",
    "widevalue": "SI/BR@64",
    "raggedkey": "G/BR@64",
    "numfixed": "G/BR@64",
}

FRESH = CalibrationState()  # no ledger: factory constants, no history


class TestGoldenTable:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
    def test_synthetic_choice(self, name):
        spec, inp = synthetic_case(name, seed=0)
        decision = decide_modes(spec, inp, config=CFG, calibration=FRESH)
        assert decision.choice == GOLDEN[name]
        assert decision.source == "model"
        assert decision.objective == "cycles"
        assert decision.predicted_cost > 0

    def test_choices_agree_with_committed_bench(self):
        """The committed artefact's tuned choices are this model's."""
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_autotune.json")
        with open(path) as f:
            doc = json.load(f)
        by_case = {c["case"]: c for c in doc["cases"]}
        for name, choice in GOLDEN.items():
            assert by_case[name]["tuned_choice"] == choice
            assert by_case[name]["ratio_to_best"] <= doc["per_case_bar"]
        assert doc["gates"] == {"per_case_within_bar": True,
                                "tuned_beats_every_fixed_mode": True}


class TestSentinels:
    def test_strategy_none_stays_map_only(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG, strategy=None,
                                calibration=FRESH)
        assert decision.strategy is None  # tuner never adds a Reduce

    def test_pinned_strategy_is_kept(self):
        spec, inp = synthetic_case("hotkey", seed=0)
        decision = decide_modes(spec, inp, config=CFG,
                                strategy=ReduceStrategy.TR,
                                calibration=FRESH)
        assert decision.strategy is ReduceStrategy.TR

    def test_pinned_tpb_is_kept(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG,
                                threads_per_block=256, calibration=FRESH)
        assert decision.threads_per_block == 256

    def test_open_tpb_explores_candidates(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_modes(spec, inp, config=CFG, calibration=FRESH)
        assert decision.threads_per_block in TPB_CANDIDATES

    def test_br_never_paired_with_gt(self):
        for name in SYNTHETIC_CASES:
            spec, inp = synthetic_case(name, seed=0)
            decision = decide_modes(spec, inp, config=CFG,
                                    strategy=ReduceStrategy.BR,
                                    calibration=FRESH)
            assert decision.mode is not MemoryMode.GT


class TestExecution:
    def test_decides_backend_and_modes(self):
        spec, inp = synthetic_case("uniform", seed=0)
        decision = decide_execution(spec, inp, config=CFG,
                                    calibration=FRESH, cpu_count=4)
        assert decision.objective == "wall"
        assert decision.backend in ("fast", "parallel", "columnar")
        assert isinstance(decision.mode, MemoryMode)
        assert decision.summary()["choice"] == decision.choice

    def test_large_intermediate_gets_spill_budget(self):
        spec, inp = synthetic_case("widevalue", seed=0)
        decision = decide_execution(spec, inp, config=CFG,
                                    calibration=FRESH, cpu_count=4,
                                    memory_ceiling=1024)
        assert decision.store == "spill"
        assert decision.memory_budget == 1024


class TestHistoryOverride:
    def _swept_records(self, spec, inp):
        digest = digest_input(inp)
        base = {
            "workload": spec.name, "input_digest": digest,
            "records_in": len(inp), "backend": "sim",
        }
        return [
            dict(base, mode="SO", strategy="TR", sim_cycles=9000.0),
            dict(base, mode="SI", strategy="BR", sim_cycles=100.0),
        ]

    def test_measured_winner_overrides_model(self):
        spec, inp = synthetic_case("uniform", seed=0)
        cal = CalibrationState(records=self._swept_records(spec, inp))
        decision = decide_modes(spec, inp, config=CFG, calibration=cal)
        assert decision.source == "history"
        assert decision.mode is MemoryMode.SI
        assert decision.strategy is ReduceStrategy.BR

    def test_single_config_is_not_a_sweep(self):
        spec, inp = synthetic_case("uniform", seed=0)
        cal = CalibrationState(
            records=self._swept_records(spec, inp)[:1])
        decision = decide_modes(spec, inp, config=CFG, calibration=cal)
        assert decision.source == "model"


class TestEnv:
    def test_truthy_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
        assert not resolve()["autotune"]
        for value, want in (("1", True), ("on", True), ("0", False)):
            monkeypatch.setenv("REPRO_AUTOTUNE", value)
            assert resolve()["autotune"] is want
