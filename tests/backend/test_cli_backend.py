"""CLI robustness and the --backend flag on repro-trace / repro-bench.

Unknown workload / mode / strategy / backend names must exit with
code 2 and a message listing the valid choices — never a traceback.
"""

import json
import os

import pytest

from repro.analysis.cli import main as bench_main
from repro.obs.cli import main as trace_main


def _exit_code(excinfo) -> int:
    code = excinfo.value.code
    return code if isinstance(code, int) else 1


class TestTraceCli:
    def test_unknown_workload_exits_2_with_listing(self, capsys):
        with pytest.raises(SystemExit) as e:
            trace_main(["nope"])
        assert _exit_code(e) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        for code in ("WC", "KM", "LR"):
            assert code in err

    def test_unknown_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--mode", "XYZ"])
        assert _exit_code(e) == 2
        err = capsys.readouterr().err
        assert "unknown memory mode" in err
        assert "SIO" in err

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--strategy", "QR"])
        assert _exit_code(e) == 2

    def test_unknown_backend_exits_2(self, capsys):
        for name in ("cuda", "parallel"):
            with pytest.raises(SystemExit) as e:
                trace_main(["WC", "--backend", name])
            assert _exit_code(e) == 2
            assert ("unknown backend; known: columnar, dist, fast, sim"
                    in capsys.readouterr().err)

    def test_bad_blocks_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--blocks", "x,y"])
        assert _exit_code(e) == 2

    def test_fast_backend_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "t"
        rc = trace_main([
            "WC", "--backend", "fast", "--scale", "0.2", "--mps", "2",
            "--out", str(out), "--quiet",
        ])
        assert rc == 0
        with open(out / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert metrics["backend"] == "fast"
        assert os.path.exists(out / "trace.json")

    def test_columnar_flag_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = trace_main([
            "WC", "--backend", "columnar", "--scale", "0.2", "--mps", "2",
            "--out", str(out), "--quiet",
        ])
        assert rc == 0
        with open(out / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert metrics["backend"] == "columnar"

    @pytest.mark.parametrize("budget", ["1.5m", "0", "-1", "64q"])
    def test_bad_memory_budget_exits_2(self, budget, capsys):
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--store", "spill",
                        "--memory-budget", budget])
        assert _exit_code(e) == 2
        assert "budget" in capsys.readouterr().err

    def test_bad_env_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1.5m")
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--backend", "fast"])
        assert _exit_code(e) == 2
        assert "budget" in capsys.readouterr().err

    def test_bad_env_backend_exits_2(self, capsys, monkeypatch):
        for value, reason in (("dist:0", "worker count"),
                              ("parallel", "unknown backend")):
            monkeypatch.setenv("REPRO_BACKEND", value)
            with pytest.raises(SystemExit) as e:
                trace_main(["WC"])
            assert _exit_code(e) == 2
            assert reason in capsys.readouterr().err

    def test_bad_env_workers_exits_2(self, capsys, monkeypatch):
        # Parsed even though the flag supplies the backend.
        monkeypatch.setenv("REPRO_BACKEND", "dist:abc")
        with pytest.raises(SystemExit) as e:
            trace_main(["WC", "--backend", "dist"])
        assert _exit_code(e) == 2
        assert "$REPRO_BACKEND='dist:abc'" in capsys.readouterr().err


class TestBenchCli:
    def test_unknown_workload_code_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            bench_main(["table1", "--workload", "WC,XX"])
        assert _exit_code(e) == 2
        err = capsys.readouterr().err
        assert "unknown workload code" in err
        assert "LR" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            bench_main(["fig99"])
        assert _exit_code(e) == 2

    def test_backend_rejected_for_timing_commands(self, capsys):
        rc = bench_main(["fig6", "--backend", "fast"])
        assert rc == 2
        assert "cycle-accurate" in capsys.readouterr().err

    def test_validate_under_fast_backend(self, capsys):
        rc = bench_main([
            "validate", "--workload", "LR,HG", "--scale", "0.25",
            "--backend", "fast",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conformance" in out
        assert "FAIL" not in out

    def test_validate_under_columnar_backend(self, capsys):
        rc = bench_main([
            "validate", "--workload", "HG", "--scale", "0.2",
            "--backend", "columnar",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conformance" in out
        assert "FAIL" not in out

    def test_validate_bad_budget_exits_2(self, capsys):
        # A malformed budget ("1.5m") once escaped cmd_validate as a raw
        # traceback; it must be the documented exit-2 usage error.
        with pytest.raises(SystemExit) as e:
            bench_main(["validate", "--workload", "WC", "--store",
                        "spill", "--memory-budget", "1.5m"])
        assert _exit_code(e) == 2
        assert "budget" in capsys.readouterr().err

    def test_validate_bad_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            bench_main(["validate", "--workload", "WC", "--backend",
                        "dist:0"])
        assert _exit_code(e) == 2
        assert "worker count" in capsys.readouterr().err
