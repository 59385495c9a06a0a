"""CLI wiring: --mode (auto included) on both drivers, report --tuner.

The friendly exit-2 paths all route through the one central name
validator (``repro.framework.modes.resolve_*_name``) — these tests pin
that both CLIs actually use it, and that conflicting flags fail fast
instead of running a mistuned job.
"""

import pytest

from repro.analysis.cli import main as bench_main
from repro.analysis.validation import validate_workload
from repro.gpu.config import DeviceConfig
from repro.obs.cli import main as trace_main
from repro.obs.report_cli import main as report_main
from repro.workloads import WordCount

TRACE_ARGS = ["wordcount", "--size", "small", "--mps", "2", "--quiet"]


def _code(result):
    return result if isinstance(result, int) else 0


class TestTraceCli:
    def test_autotune_runs_and_reports_choice(self, tmp_path, capsys):
        rc = trace_main(TRACE_ARGS + ["--mode", "auto",
                                      "--out", str(tmp_path)])
        assert _code(rc) == 0
        text = capsys.readouterr().out
        assert "tuner" in text or (tmp_path / "metrics.json").exists()

    def test_mars_rejects_any_mode(self, capsys):
        # Mars has its own two-pass scheme; a --mode used to be
        # accepted and then recorded as mode "Mars".
        for mode in ("auto", "G"):
            with pytest.raises(SystemExit) as exc:
                trace_main(TRACE_ARGS + ["--mars", "--mode", mode])
            assert exc.value.code == 2
            assert "--mars" in capsys.readouterr().err

    def test_unknown_mode_exits_2_with_friendly_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            trace_main(TRACE_ARGS + ["--mode", "TURBO"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown memory mode" in err and "SIO" in err

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            trace_main(TRACE_ARGS + ["--mode", "SIO",
                                     "--strategy", "WAT"])
        assert exc.value.code == 2
        assert "unknown reduce strategy" in capsys.readouterr().err


class TestBenchCli:
    def test_unknown_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(["validate", "--mode", "TURBO"])
        assert exc.value.code == 2
        assert "unknown memory mode" in capsys.readouterr().err

    def test_mode_restricted_to_validate(self, capsys):
        rc = bench_main(["table2", "--mode", "G"])
        assert rc == 2

    def test_validate_auto_matrix_passes(self, capsys):
        rc = bench_main(["validate", "--mode", "auto", "--workload", "WC",
                         "--mps", "2"])
        assert _code(rc) == 0
        out = capsys.readouterr().out
        assert "auto>" in out and "FAIL" not in out


class TestValidationMode:
    def test_single_mode_restricts_matrix(self):
        rep = validate_workload(WordCount(), config=DeviceConfig.small(2),
                                mode="SO")
        assert rep.passed
        assert {c.mode for c in rep.cases} == {"SO"}

    def test_auto_mode_labels_resolution(self):
        rep = validate_workload(WordCount(), config=DeviceConfig.small(2),
                                mode="auto")
        assert rep.passed
        assert all(c.mode.startswith("auto>") for c in rep.cases)


class TestReportTuner:
    def test_tuner_section_renders_choices(self, capsys):
        from repro.framework.job import run_job
        from repro.tune.synthetic import synthetic_case

        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        # Pin the sim backend: the error column needs a cycles
        # measurement, and the suite also runs under
        # REPRO_BACKEND=dist:2.
        run_job(spec, inp, mode="auto", strategy="auto",
                config=DeviceConfig.small(2), backend="sim")
        run_job(spec, inp, mode="SIO", strategy="TR",
                config=DeviceConfig.small(2), backend="sim")
        assert report_main(["--tuner"]) == 0
        out = capsys.readouterr().out
        assert "1 autotuned run(s)" in out
        assert "@" in out  # the choice label
        assert "mean |error|" in out

    def test_tuner_empty_ledger_message(self, capsys):
        assert report_main(["--tuner"]) == 0
        assert "no autotuned runs" in capsys.readouterr().out
