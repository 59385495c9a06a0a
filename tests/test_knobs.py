"""The knob table (:mod:`repro.config`): one reader, one error form.

Every ``REPRO_*`` setting is read, parsed and validated in one module.
A bad value fails once, at entry, with the same one-line message from
``repro-trace``, from ``repro-bench`` and from the API — before any
backend opens.
"""

import ast
import json
import os
import re
from pathlib import Path

import pytest

import repro.analysis.cli as bench_cli
import repro.backend as backend_mod
from repro.analysis.cli import main as bench_main
from repro.backend import FastBackend
from repro.config import KNOBS, override, resolve
from repro.errors import FrameworkError
from repro.framework import ReduceStrategy, run_job
from repro.obs.cli import main as trace_main
from repro.obs.ledger import read_ledger
from repro.workloads import WordCount

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DOCS = Path(__file__).resolve().parents[1] / "docs" / "API.md"

#: One rejected value per knob.  ``ledger_dir`` has none: any path is
#: accepted, and an unwritable one degrades to no ledger by design.
BAD = {
    "backend": "cuda",
    "workers": "0",
    "columnar": "maybe",
    "columnar_batch": "0",
    "store": "bogus",
    "memory_budget": "1.5m",
    "spill_dir": "{tmp}/nope",
    "check": "bogus",
    "autotune": "bogus",
    "ledger": "bogus",
}
#: Knobs a driver takes as an argument (``run_job(store=...)``).
ARGS = ("backend", "store", "memory_budget", "check")


def _bad(name, tmp_path):
    return BAD[name].format(tmp=tmp_path)


def _one_line_error(capsys, prog) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{prog}: "), err
    return err[len(prog) + 2:].rstrip("\n")


def _cli_error(capsys, main, argv, prog) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return _one_line_error(capsys, prog)


def _trace(argv, capsys):
    return _cli_error(capsys, trace_main,
                      ["WC", "--mps", "1", "--quiet"] + argv, "repro-trace")


def _bench(argv, capsys):
    return _cli_error(capsys, bench_main,
                      ["validate", "--workload", "WC", "--mps", "1"] + argv,
                      "repro-bench")


class _Opened(Exception):
    pass


@pytest.fixture
def no_open(monkeypatch):
    """Make any backend a driver builds fail loudly if it is opened."""
    class Spy(FastBackend):
        def open(self, plan):
            raise _Opened

    monkeypatch.setattr(backend_mod, "get_backend", lambda backend: Spy())


def _job(**kwargs):
    w = WordCount()
    return run_job(w.spec(), w.generate("small", seed=0, scale=0.05),
                   strategy=ReduceStrategy.TR, **kwargs)


# ----------------------------------------------------------------------
# One reader
# ----------------------------------------------------------------------


def _is_environ(node) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "environ")
            or (isinstance(node, ast.Name) and node.id == "environ"))


def _env_reads(tree):
    """``(line, key node)`` of every read of the process environment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            getenv = isinstance(f, ast.Attribute) and f.attr == "getenv"
            method = (isinstance(f, ast.Attribute) and _is_environ(f.value)
                      and f.attr in ("get", "pop", "setdefault"))
            if getenv or method:
                yield node.lineno, node.args[0] if node.args else None
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Load) and _is_environ(node.value)):
            yield node.lineno, node.slice
        elif (isinstance(node, ast.Compare)
              and any(_is_environ(c) for c in node.comparators)):
            yield node.lineno, node.left


def _is_repro_read(key) -> bool:
    # A key that is not a literal could name anything: count it.
    if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
        return True
    return key.value.startswith("REPRO_")


def test_only_config_reads_repro_variables():
    offenders, in_config = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, key in _env_reads(tree):
            if not _is_repro_read(key):
                continue
            if path.name == "config.py" and path.parent == SRC:
                in_config += 1
            else:
                offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == []
    assert in_config >= 1  # the scan does see the one real reader


# ----------------------------------------------------------------------
# One error, at entry, from every entry point
# ----------------------------------------------------------------------


def test_every_knob_has_a_bad_value():
    assert set(BAD) | {"ledger_dir"} == set(KNOBS)


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_env_value_exits_2_everywhere(name, tmp_path, monkeypatch,
                                          capsys, no_open):
    knob = KNOBS[name]
    bad = _bad(name, tmp_path)
    monkeypatch.setenv(knob.env, bad)
    want = f"${knob.env}={bad!r}: "
    from_trace = _trace(["--out", str(tmp_path / "t")], capsys)
    assert from_trace.startswith(want)
    assert _bench([], capsys) == from_trace
    with pytest.raises(FrameworkError) as exc:
        _job()  # the Spy backend raises _Opened if anything opens it
    assert str(exc.value) == from_trace


@pytest.mark.parametrize("name", sorted(
    n for n in BAD if KNOBS[n].flag and n != "check"))
def test_bad_flag_value_exits_2_from_both_clis(name, tmp_path, capsys):
    flag = KNOBS[name].flag
    bad = _bad(name, tmp_path)
    from_trace = _trace([flag, bad, "--out", str(tmp_path / "t")], capsys)
    assert from_trace.startswith(f"{flag}={bad!r}: ")
    assert _bench([flag, bad], capsys) == from_trace


@pytest.mark.parametrize("name", ARGS)
def test_bad_argument_raises_before_open(name, tmp_path, no_open):
    bad = _bad(name, tmp_path)
    with pytest.raises(FrameworkError, match=re.escape(f"{name}={bad!r}: ")):
        _job(**{name: bad})


def test_spill_env_lets_the_budget_flag_through(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "spill")
    assert trace_main(["WC", "--backend", "fast", "--memory-budget", "64k",
                       "--scale", "0.1", "--mps", "1", "--quiet",
                       "--out", str(tmp_path)]) == 0


def test_budget_flag_needs_the_spill_store(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert "spill" in _trace(["--memory-budget", "64k"], capsys)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


def test_precedence_arg_flag_tuner_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert (resolve()["store"], resolve().source("store")) == \
        ("memory", "default")
    monkeypatch.setenv("REPRO_STORE", "spill")
    assert resolve().source("store") == "env"
    assert resolve(tuner={"store": "memory"}).source("store") == "tuner"
    with override(store="spill"):
        s = resolve({"store": None}, tuner={"store": "memory"})
        assert (s["store"], s.source("store")) == ("spill", "flag")
        s = resolve({"store": "memory"})
        assert (s["store"], s.source("store")) == ("memory", "arg")
    assert resolve().source("store") == "env"


def test_bench_check_flag_is_scoped_to_the_command(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    seen = []

    def spy(args):
        s = resolve()
        seen.append((s["check"], s.source("check")))

    monkeypatch.setattr(bench_cli, "cmd_table1", spy)
    assert bench_main(["table1", "--check"]) == 0
    assert seen == [("strict", "flag")]
    assert "REPRO_CHECK" not in os.environ
    assert resolve().source("check") == "default"


def test_ledger_records_the_non_default_knobs(monkeypatch):
    for knob in KNOBS.values():
        if knob.name != "ledger_dir":
            monkeypatch.delenv(knob.env, raising=False)
    monkeypatch.setenv("REPRO_COLUMNAR_BATCH", "64")
    _job(backend="fast", store="memory")
    config = read_ledger()[-1]["config"]
    # $REPRO_LEDGER_DIR (set by the suite's conftest) is left out: it
    # only says where the record itself is written.
    assert config == {"backend": ["arg", "fast"],
                      "store": ["arg", "memory"],
                      "columnar_batch": ["env", 64]}
    json.dumps(config)


# ----------------------------------------------------------------------
# Docs
# ----------------------------------------------------------------------


def test_every_knob_is_in_the_api_configuration_table():
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    for knob in KNOBS.values():
        row = [r for r in rows if f"`{knob.env}`" in r]
        assert len(row) == 1, knob.name
        assert f"`{knob.name}`" in row[0]
        assert (f"`{knob.flag}`" if knob.flag else "—") in row[0]
