"""Calibration loop: corrections, history lookup, schema tolerance."""

import json
import os

from repro.framework.job import run_job
from repro.gpu.config import DeviceConfig
from repro.obs.ledger import SCHEMA, ledger_path, read_ledger
from repro.tune.calibrate import (
    CORRECTION_MAX,
    CORRECTION_MIN,
    MIN_SAMPLES,
    CalibrationState,
    load_calibration,
)
from repro.tune.synthetic import synthetic_case


def _tuned_rec(error, **kw):
    rec = {"tuned": True, "tuner_predicted_cost": 100.0,
           "tuner_error": error, "mode": "G", "strategy": "TR",
           "backend": "sim"}
    rec.update(kw)
    return rec


def _corrections(records):
    state = CalibrationState.from_records(records)
    return state.corrections, state.samples


class TestCorrections:
    def test_geometric_mean_of_error_ratios(self):
        recs = [_tuned_rec(0.25), _tuned_rec(0.25)]
        corrections, samples = _corrections(recs)
        assert samples == 2
        assert abs(corrections["mode:G"] - 1.25) < 1e-9
        assert abs(corrections["strategy:TR"] - 1.25) < 1e-9
        assert abs(corrections["backend:sim"] - 1.25) < 1e-9

    def test_clamped_to_band(self):
        recs = [_tuned_rec(99.0)] * 3
        corrections, _ = _corrections(recs)
        assert corrections["mode:G"] == CORRECTION_MAX
        recs = [_tuned_rec(-0.99)] * 3
        corrections, _ = _corrections(recs)
        assert corrections["mode:G"] == CORRECTION_MIN

    def test_min_samples(self):
        corrections, samples = _corrections(
            [_tuned_rec(0.5)] * (MIN_SAMPLES - 1))
        assert corrections == {}
        assert samples == MIN_SAMPLES - 1

    def test_untuned_and_unmatched_units_ignored(self):
        recs = [
            {"tuned": False, "mode": "G"},                  # untuned
            _tuned_rec(None),                               # no error
            {"schema": 1, "mode": "SIO", "backend": "sim"}, # pre-tuner
        ]
        corrections, samples = _corrections(recs)
        assert corrections == {} and samples == 0


class TestLedgerSchema:
    def test_tuned_run_records_schema2_fields(self):
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        # Pin the sim backend: the error is only recorded when the
        # objective's unit (cycles) matches what the backend measures,
        # and the suite also runs under REPRO_BACKEND=dist:2.
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2), backend="sim")
        (rec,) = read_ledger()
        assert rec["schema"] == SCHEMA
        assert rec["tuned"] is True
        assert rec["tuner_choice"]
        assert rec["tuner_predicted_cost"] > 0
        # sim run, cycles objective: units match => error recorded
        assert isinstance(rec["tuner_error"], float)

    def test_untuned_run_has_null_tuner_fields(self):
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        run_job(spec, inp, mode="SIO", strategy="TR",
                config=DeviceConfig.small(2))
        (rec,) = read_ledger()
        assert rec["tuned"] is False
        assert rec["tuner_choice"] is None
        assert rec["tuner_predicted_cost"] is None
        assert rec["tuner_error"] is None

    def test_reader_tolerates_schema1_lines(self):
        """A ledger mixing pre-tuner (schema 1) and current lines must
        parse whole and calibrate from what each line has."""
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2))
        path = ledger_path()
        schema1 = {"schema": 1, "workload": "uniform", "mode": "SIO",
                   "strategy": "TR", "backend": "sim",
                   "sim_cycles": 123.0, "wall_s": 0.01}
        with open(path, "a") as f:
            f.write(json.dumps(schema1) + "\n")
            f.write("NOT JSON AT ALL\n")
        records = read_ledger()
        assert len(records) == 2  # malformed line skipped, both schemas in
        state = load_calibration()
        assert state.lines == 2
        assert state.samples <= 1  # only the tuned line can contribute

    def test_unmatched_units_leave_error_null(self):
        """A fast-backend tuned run carries a cycles prediction from
        the mode decision; the ledger must not fabricate an error from
        mismatched units (cycles predicted, wall measured)."""
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2), backend="fast")
        (rec,) = read_ledger()
        assert rec["tuned"] is True
        assert rec["tuner_error"] is None


class TestCalibrationCache:
    def test_reparses_when_ledger_grows(self):
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2))
        first = load_calibration()
        assert load_calibration() is first  # unchanged file: cache hit
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2))
        second = load_calibration()
        assert second is not first
        assert second.lines == first.lines + 1

    def test_missing_ledger_degrades_to_factory(self, tmp_path):
        state = load_calibration(str(tmp_path / "nope.jsonl"))
        assert state.lines == 0
        assert state.corrections == {}


class TestHistoryLookup:
    BASE = {"workload": "wc", "backend": "sim"}

    def test_exact_digest_beats_neighbour(self):
        recs = [
            dict(self.BASE, input_digest="aaa", records_in=100,
                 sim_cycles=50.0, mode="SO"),
            dict(self.BASE, input_digest="bbb", records_in=100,
                 sim_cycles=1.0, mode="SI"),
        ]
        history = CalibrationState.from_records(recs).history
        ((_, hit),) = history[("wc", "aaa")].values()
        assert hit["mode"] == "SO"  # exact match only, despite higher cost

    def test_newest_wins_at_equal_cost(self):
        recs = [dict(self.BASE, input_digest="aaa", sim_cycles=5.0,
                     mode="SO", n=n) for n in range(3)]
        recs.append(dict(self.BASE, input_digest="aaa", sim_cycles=9.0,
                         mode="SO", n=3))
        history = CalibrationState.from_records(recs).history
        ((cost, best),) = history[("wc", "aaa")].values()
        assert (cost, best["n"]) == (5.0, 2)
