"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest bench -q

Runs every workload at 3 jobs, untraced and traced, through the same
command the benchmark's users run, and checks the output contract.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def result() -> dict:
    proc = _bench("--seed", "0", "--jobs", "3")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_names_are_plain():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer")
              for m in DECLARED[kind]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_every_declared_metric_is_printed_with_its_unit(result):
    assert all(NAME.fullmatch(k) for k in result["metrics"])
    for w in DECLARED["workloads"]:
        for kind in ("end_to_end", "per_layer"):
            for m in DECLARED[kind]:
                got = result["metrics"][f"{w['name']}.{m['name']}"]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))


def test_layers_add_up_to_job_wall(result):
    for w in DECLARED["workloads"]:
        coverage = result["metrics"][f"{w['name']}.trace.layer_coverage"]
        assert 0.95 <= coverage["value"] <= 1.05, w["name"]


def test_no_job_failed(result):
    assert result["correct"] is True
    assert result["failed"] == 0
    # Per workload: three set-up workers with 3 warm-up jobs each plus
    # 3 measured jobs, then a traced worker with 3 warm-up + 3 jobs.
    assert result["attempted"] == 5 * (3 * 3 + 3 + 3 + 3)


def test_trace_spans_nest_inside_their_job(result):
    for w in DECLARED["workloads"]:
        path = ROOT / "bench" / "_out" / f"trace-{w['name']}-seed0.json"
        events = [e for e in json.loads(path.read_text())["traceEvents"]
                  if e["ph"] == "X"]
        jobs = {e["args"]["job"]: e for e in events if e["name"] == "job"}
        assert jobs, w["name"]
        for e in events:
            if e["name"] == "job":
                continue
            job = jobs[e["args"]["job"]]
            assert e["args"]["parent"] == "job"
            assert job["ts"] <= e["ts"]
            assert e["ts"] + e["dur"] <= job["ts"] + job["dur"] + 1e-3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "sim-wc", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
