"""End-to-end ``repro-trace`` CLI: artefacts, determinism, baselines."""

import json

import pytest

from repro.obs.cli import main, resolve_workload
from repro.workloads import KMeans, WordCount

# backend pinned: byte-stable traces are the sim's contract — dist
# worker spans carry wall-clock stamps and pids.
ARGS = ["wordcount", "--mode", "SIO", "--strategy", "TR",
        "--size", "small", "--mps", "1", "--quiet", "--backend", "sim"]


class TestResolveWorkload:
    def test_accepts_code_classname_and_title(self):
        assert isinstance(resolve_workload("WC"), WordCount)
        assert isinstance(resolve_workload("WordCount"), WordCount)
        assert isinstance(resolve_workload("word count"), WordCount)
        assert isinstance(resolve_workload("kmeans"), KMeans)

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            resolve_workload("nope")


class TestCliRun:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace")
        assert main(ARGS + ["--out", str(out)]) == 0
        return out

    def test_writes_all_artefacts(self, out_dir):
        for name in ("trace.json", "events.jsonl", "metrics.json"):
            assert (out_dir / name).exists(), name

    def test_trace_is_valid_and_nested(self, out_dir):
        doc = json.loads((out_dir / "trace.json").read_text())
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == 0]
        assert spans[0]["name"] == "job:wordcount"
        names = {e["name"] for e in spans}
        assert {"map", "map_kernel", "reduce", "reduce_kernel"} <= names
        job = spans[0]
        assert all(e["ts"] + e["dur"] <= job["ts"] + job["dur"]
                   for e in spans)

    def test_metrics_header(self, out_dir):
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["schema"] == 1
        assert doc["workload"] == "WC"
        assert doc["mode"] == "SIO"
        assert doc["strategy"] == "TR"
        assert doc["counters"] and doc["gauges"]

    def test_metrics_byte_stable_across_runs(self, out_dir, tmp_path):
        assert main(ARGS + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "metrics.json").read_bytes() == \
            (out_dir / "metrics.json").read_bytes()
        assert (tmp_path / "trace.json").read_bytes() == \
            (out_dir / "trace.json").read_bytes()

    def test_baseline_self_diff_is_clean(self, out_dir, tmp_path, capsys):
        rc = main(ARGS + ["--out", str(tmp_path),
                          "--baseline", str(out_dir / "metrics.json")])
        assert rc == 0
        assert "no metric changes" in capsys.readouterr().out

    def test_baseline_detects_regression(self, out_dir, tmp_path, capsys):
        doc = json.loads((out_dir / "metrics.json").read_text())
        doc["gauges"]["job.total_cycles"] *= 2
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc))
        rc = main(ARGS + ["--out", str(tmp_path / "o"),
                          "--baseline", str(baseline)])
        assert rc == 1
        assert "job.total_cycles" in capsys.readouterr().out

    def test_blocks_none_disables_device_detail(self, tmp_path):
        assert main(ARGS + ["--blocks", "none",
                            "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert not any(e.get("cat") == "device"
                       for e in doc["traceEvents"])
        # Host spans are still traced.
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
