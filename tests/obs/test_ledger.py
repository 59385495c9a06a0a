"""The persistent run ledger: append-only JSONL, env gating, safety."""

import json
import multiprocessing as mp
import os

from repro.config import resolve
from repro.framework import MemoryMode, ReduceStrategy
from repro.framework.job import run_job
from repro.gpu import DeviceConfig
from repro.gpu.analysis_cache import clear_all_caches
from repro.obs import ledger
from repro.workloads import WordCount


def _run(backend="fast"):
    wc = WordCount()
    inp = wc.generate("small", seed=0)
    return run_job(wc.spec(), inp, mode=MemoryMode.SIO,
                   strategy=ReduceStrategy.TR,
                   config=DeviceConfig.small(1), backend=backend)


class TestEnvGating:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ledger.LEDGER_ENV, raising=False)
        assert resolve()["ledger"]

    def test_opt_out_values(self, monkeypatch):
        for value in ("0", "off", "false", "no", "OFF", " False "):
            monkeypatch.setenv(ledger.LEDGER_ENV, value)
            assert not resolve()["ledger"]
        monkeypatch.setenv(ledger.LEDGER_ENV, "1")
        assert resolve()["ledger"]

    def test_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        assert ledger.ledger_path() == str(tmp_path / "runs.jsonl")


class TestRecording:
    def test_every_run_appends_one_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        _run()
        _run()
        records = ledger.read_ledger()
        assert len(records) == 2

    def test_record_fields(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        _run()
        (rec,) = ledger.read_ledger()
        assert rec["schema"] == ledger.SCHEMA
        assert rec["workload"] == "wordcount"
        assert rec["backend"] == "fast"
        assert rec["mode"] == "SIO"
        assert rec["strategy"] == "TR"
        assert rec["streamed"] is False
        assert rec["records_in"] > 0
        assert rec["output_records"] > 0
        assert len(rec["input_digest"]) == 16
        assert len(rec["kernel_digest"]) == 16
        assert rec["sim_cycles"] > 0
        assert rec["wall_s"] > 0

    def test_same_input_same_digest(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        _run()
        _run()
        a, b = ledger.read_ledger()
        assert a["input_digest"] == b["input_digest"]
        assert a["kernel_digest"] == b["kernel_digest"]

    def test_sim_digest_ignores_analysis_cache_warmth(self, monkeypatch,
                                                      tmp_path):
        """The drift digest pins the timing model, not the host's memo
        state: one sim job run cold, then warm, digests the same."""
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        clear_all_caches()
        _run(backend="sim")
        _run(backend="sim")
        cold, warm = ledger.read_ledger()
        # The two runs did meet the caches in different states.
        assert cold["analysis_cache_hit_rate"] \
            < warm["analysis_cache_hit_rate"]
        assert cold["sim_cycles"] == warm["sim_cycles"]
        assert cold["kernel_digest"] == warm["kernel_digest"]

    def test_sim_and_fast_share_input_digest(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        _run(backend="sim")
        _run(backend="fast")
        sim_rec, fast_rec = ledger.read_ledger()
        assert sim_rec["input_digest"] == fast_rec["input_digest"]
        assert sim_rec["backend"] == "sim"
        assert fast_rec["backend"] == "fast"

    def test_opt_out_suppresses_recording(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(ledger.LEDGER_ENV, "0")
        _run()
        assert ledger.read_ledger() == []
        assert not os.path.exists(ledger.ledger_path())

    def test_unwritable_dir_never_fails_the_job(self, monkeypatch):
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV,
                           "/proc/definitely/not/writable")
        res = _run()
        assert len(res.output) > 0


class TestReading:
    def test_absent_file_reads_empty(self, tmp_path):
        assert ledger.read_ledger(str(tmp_path / "nope.jsonl")) == []

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = {"schema": 1, "workload": "wc", "backend": "fast"}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"torn": tru\n'          # torn write
            + "\n"                       # blank
            + '"just a string"\n'        # valid JSON, not a record
            + json.dumps(good) + "\n"
        )
        assert ledger.read_ledger(str(path)) == [good, good]

    def test_group_runs_preserves_order(self):
        recs = [
            {"workload": "wc", "backend": "fast", "n": 1},
            {"workload": "wc", "backend": "sim", "n": 2},
            {"workload": "wc", "backend": "fast", "n": 3},
        ]
        groups = ledger.group_runs(recs)
        assert [r["n"] for r in groups[("wc", "fast")]] == [1, 3]
        assert [r["n"] for r in groups[("wc", "sim")]] == [2]


def _append_batch(task):
    path, worker, count = task
    for i in range(count):
        ledger.append_record({"worker": worker, "i": i}, path)
    return worker


class TestConcurrency:
    def test_parallel_appends_never_tear_lines(self, tmp_path):
        """Two processes interleave whole lines, never bytes — every
        record written is read back intact."""
        path = str(tmp_path / "runs.jsonl")
        count = 300
        with mp.get_context("fork").Pool(2) as pool:
            pool.map(_append_batch, [(path, 0, count), (path, 1, count)])
        records = ledger.read_ledger(path)
        assert len(records) == 2 * count
        for worker in (0, 1):
            seen = [r["i"] for r in records if r["worker"] == worker]
            assert seen == sorted(seen)
            assert len(seen) == count

    def test_two_parallel_jobs_both_land(self, monkeypatch, tmp_path):
        """End-to-end: two concurrently executing jobs each append."""
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path))
        with mp.get_context("fork").Pool(2) as pool:
            a = pool.apply_async(_run)
            b = pool.apply_async(_run)
            a.get()
            b.get()
        records = ledger.read_ledger()
        assert len(records) == 2
        assert all(r["workload"] == "wordcount" for r in records)
