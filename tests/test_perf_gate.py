"""The CI perf gate (``scripts/perf_gate.py``): each check and its bound.

``_measure_tree`` is replaced by a table of CPU seconds per (workload,
backend), so every ratio the gate sees is chosen by the test.  One
test runs the real measuring subprocess once, on the fast backend, to
check what it leaves in the ledger.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: CPU seconds that pass every check: sim/fast 10 on wordcount and 2 on
#: kmeans; columnar 2x scalar on wordcount and 10x on kmeans.
CLEAN = {
    ("wordcount", "sim"): 0.2, ("wordcount", "fast"): 0.02,
    ("wordcount", "columnar"): 0.01,
    ("kmeans", "sim"): 0.1, ("kmeans", "fast"): 0.05,
    ("kmeans", "columnar"): 0.005,
}


def _record(backend, wall, config, *, workload="wordcount", schema=3):
    rec = {"schema": schema, "workload": workload, "backend": backend,
           "mode": "SIO", "strategy": "TR", "input_digest": "d0",
           "wall_s": wall}
    if config is not None:
        rec["config"] = config
    return rec


def _gate_run(backend, wall, **kw):
    """A ledger record of the kind the gate's own measurements write."""
    return _record(backend, wall, {"backend": ["arg", backend]}, **kw)


@pytest.fixture
def run_gate(monkeypatch, tmp_path):
    """``run_gate(cpu, records=(), argv=())`` -> (exit code, calls)."""

    def run(cpu=CLEAN, records=(), argv=()):
        calls = []

        def measure(workload, backend, repeats):
            calls.append((workload, backend))
            return cpu[workload, backend]

        monkeypatch.setattr(gate, "_measure_tree", measure)
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
        return gate.main(["--ledger", str(ledger), *argv]), calls

    return run


def test_clean_run_passes_measuring_each_pair_once(run_gate, capsys):
    code, calls = run_gate()
    assert code == 0
    assert sorted(calls) == sorted(CLEAN)
    assert "all ratios within tolerance" in capsys.readouterr().out


def test_empty_ledger_limits(run_gate, capsys):
    assert run_gate()[0] == 0
    out = capsys.readouterr().out
    assert "baseline 19.4 [bench], limit 34.0" in out
    assert "baseline 2.4 [bench], limit 4.2" in out
    assert "(floor 5.0x) ok" in out
    assert "(floor 1.5x) ok" in out
    assert "autotune: 9 cases" in out


def _sim_over_fast(workload, scale):
    limit = gate.SIM_OVER_FAST[workload] * (1 + gate.COMMITTED_TOLERANCE)
    cpu = dict(CLEAN)
    cpu[workload, "sim"] = cpu[workload, "fast"] * limit * scale
    return cpu


def _columnar(workload, scale):
    floor = {"kmeans": gate.KMEANS_COLUMNAR_FLOOR,
             "wordcount": gate.WORDCOUNT_COLUMNAR_FLOOR}[workload]
    cpu = dict(CLEAN)
    cpu[workload, "columnar"] = cpu[workload, "fast"] / (floor / scale)
    return cpu


@pytest.mark.parametrize("make,workload", [
    (_sim_over_fast, "wordcount"),
    (_sim_over_fast, "kmeans"),
    (_columnar, "kmeans"),
    (_columnar, "wordcount"),
])
def test_each_measured_check_holds_its_bound(run_gate, capsys, make,
                                             workload):
    assert run_gate(make(workload, 0.999))[0] == 0
    assert "FAIL" not in capsys.readouterr().out
    assert run_gate(make(workload, 1.001))[0] == 1
    captured = capsys.readouterr()
    assert captured.out.count("FAIL") == 1
    assert "python -m bench --workload" in captured.err


def test_sanitizer_runs_do_not_inflate_the_ledger_baseline(run_gate,
                                                           capsys):
    # Two `repro-trace --check` sim runs and one `--backend fast` run
    # of the same input: sanitized sim walls are ~3x a clean run's.
    records = [
        _record("sim", 0.80, {"check": ["flag", "report"]}),
        _record("sim", 0.80, {"check": ["flag", "report"]}),
        _record("fast", 0.0165, {"backend": ["flag", "fast"]}),
    ]
    cpu = dict(CLEAN)
    cpu["wordcount", "sim"] = cpu["wordcount", "fast"] * 3 * 13.9
    assert run_gate(cpu, records)[0] == 1
    out = capsys.readouterr().out
    assert "ratio 41.7 (baseline 19.4 [bench], limit 34.0) FAIL" in out


def test_ledger_baseline_counts_only_the_gates_own_runs(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    records = [
        _gate_run("sim", 0.25), _gate_run("sim", 0.25),
        _gate_run("fast", 0.018),
        _record("sim", 0.80, {"check": ["flag", "report"]}),
        _record("fast", 0.0165, {"backend": ["flag", "fast"]}),
        _record("sim", 0.80, {"backend": ["arg", "sim"],
                              "store": ["env", "spill"]}),
        _gate_run("columnar", 0.001),
    ]
    ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert gate._ledger_ratios(str(ledger)) == {
        "wordcount": pytest.approx(0.25 / 0.018)}


def test_ledger_skips_records_without_config(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    records = [_record("sim", 0.25, None, schema=2),
               _record("fast", 0.0025, None, schema=2),
               _gate_run("sim", 0.1, workload="kmeans"),
               _gate_run("fast", 0.05, workload="kmeans")]
    ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert gate._ledger_ratios(str(ledger)) == {"kmeans": 2.0}


def test_ledger_baseline_compares_fastest_runs(tmp_path):
    # Best-of-N, like the gated ratio: the slow jobs of a busy host
    # (or a cold first job) do not move the baseline.
    ledger = tmp_path / "runs.jsonl"
    records = [_gate_run("sim", 0.2), _gate_run("sim", 0.5),
               _gate_run("sim", 0.6), _gate_run("fast", 0.02),
               _gate_run("fast", 0.021), _gate_run("fast", 0.08)]
    ledger.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert gate._ledger_ratios(str(ledger)) == {
        "wordcount": pytest.approx(10.0)}


def test_warm_up_job_stays_out_of_the_ledger(monkeypatch, tmp_path):
    # The subprocess inherits the environment: a REPRO_CHECK=1 suite
    # run would otherwise record sanitizer runs the baseline skips.
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
    assert gate._measure_tree("kmeans", "fast", 2) > 0
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 2  # the two timed jobs, not the warm-up
    assert all(json.loads(line)["config"] == {"backend": ["arg", "fast"]}
               for line in lines)


def test_ledger_baseline_gets_the_sharp_tolerance(run_gate, capsys):
    records = [_gate_run("sim", 0.2), _gate_run("fast", 0.02)]
    cpu = dict(CLEAN)
    cpu["wordcount", "sim"] = 0.02 * 10 * (1 + gate.LEDGER_TOLERANCE) * 1.001
    assert run_gate(cpu, records)[0] == 1
    assert "(baseline 10.0 [ledger], limit 12.5) FAIL" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("flipped", ["per_case_within_bar",
                                     "tuned_beats_every_fixed_mode"])
def test_autotune_gate_flipped_false_fails(run_gate, capsys, tmp_path,
                                           flipped):
    doc = json.loads((ROOT / "BENCH_autotune.json").read_text())
    doc["gates"][flipped] = False
    artefact = tmp_path / "autotune.json"
    artefact.write_text(json.dumps(doc))
    code, _ = run_gate(argv=["--autotune-baseline", str(artefact)])
    assert code == 1
    captured = capsys.readouterr()
    assert "9 cases" in captured.out and "FAIL" in captured.out
    assert f"gate {flipped} is false" in captured.err


def test_autotune_artefact_missing_fails(run_gate, capsys, tmp_path):
    code, _ = run_gate(argv=["--autotune-baseline",
                             str(tmp_path / "absent.json")])
    assert code == 1
    assert "autotune artefact unreadable" in capsys.readouterr().err
