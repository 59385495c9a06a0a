"""Tests for the repro.check sanitizer plumbing and clean-run paths."""

import pytest

from repro.check import (
    CheckConfig,
    CheckError,
    CheckReport,
    Finding,
    resolve_check,
)
from repro.config import resolve
from repro.errors import FrameworkError
from repro.framework.api import MapReduceSpec
from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.framework.records import KeyValueSet
from repro.gpu.config import DeviceConfig


CHECK_ENV = "REPRO_CHECK"


def _u32(n):
    return (n & 0xFFFFFFFF).to_bytes(4, "little")


def _spec():
    def map_identity(key, value, emit, const):
        emit(key.to_bytes(), value.to_bytes())

    def reduce_count(key, values, emit, const):
        emit(key.to_bytes(), _u32(len(values)))

    return MapReduceSpec(name="chk", map_record=map_identity,
                         reduce_record=reduce_count)


def _input(n=24, keys=3):
    inp = KeyValueSet()
    for i in range(n):
        inp.append(_u32(i % keys), _u32(i))
    return inp


CFG = DeviceConfig.small(2)


class TestResolveCheck:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV, raising=False)
        assert resolve_check(resolve()["check"]) is None

    def test_env_values(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "1")
        cfg = resolve_check(resolve()["check"])
        assert cfg is not None and cfg.strict
        monkeypatch.setenv(CHECK_ENV, "report")
        cfg = resolve_check(resolve()["check"])
        assert cfg is not None and not cfg.strict
        monkeypatch.setenv(CHECK_ENV, "0")
        assert resolve_check(resolve()["check"]) is None

    def test_explicit_values(self):
        assert resolve_check(False) is None
        assert resolve_check(True).strict
        assert not resolve_check("report").strict
        own = CheckConfig(race=False)
        assert resolve_check(own) is own

    def test_unknown_string_raises(self):
        with pytest.raises(FrameworkError):
            resolve_check("banana")


class TestCheckReport:
    def test_ok_and_raise(self):
        rep = CheckReport()
        assert rep.ok
        rep.raise_if_findings()  # no-op when clean
        rep.add(Finding(detector="race", kind="write-write-race",
                        message="boom"), max_findings=25)
        assert not rep.ok
        with pytest.raises(CheckError) as ei:
            rep.raise_if_findings()
        assert ei.value.report is rep

    def test_report_mode_does_not_raise(self):
        rep = CheckReport(strict=False)
        rep.add(Finding(detector="race", kind="x", message="m"),
                max_findings=25)
        rep.raise_if_findings()

    def test_truncation(self):
        rep = CheckReport(strict=False)
        for i in range(30):
            accepted = rep.add(
                Finding(detector="d", kind="k", message=str(i)),
                max_findings=4)
            assert accepted == (i < 4)
        assert rep.truncated
        assert len(rep.findings) == 4
        assert rep.to_dict()["truncated"] is True


class TestJobIntegration:
    def test_clean_job_attaches_report(self):
        # backend pinned: the sanitizer instruments the simulator, so
        # this must not follow $REPRO_BACKEND to a functional backend.
        r = run_job(_spec(), _input(), mode=MemoryMode.SIO,
                    strategy=ReduceStrategy.TR, config=CFG, check=True,
                    backend="sim")
        rep = r.check_report
        assert rep is not None and rep.ok
        assert rep.counters.get("collector_reservations", 0) > 0
        assert rep.counters.get("atomic_reservations", 0) > 0

    def test_env_var_enables_check(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "report")
        r = run_job(_spec(), _input(), mode=MemoryMode.G,
                    strategy=ReduceStrategy.TR, config=CFG,
                    backend="sim")
        assert r.check_report is not None and r.check_report.ok

    def test_check_off_means_no_report(self, monkeypatch):
        monkeypatch.delenv(CHECK_ENV, raising=False)
        r = run_job(_spec(), _input(), mode=MemoryMode.SIO,
                    strategy=ReduceStrategy.TR, config=CFG)
        assert r.check_report is None

    def test_fast_backend_has_no_report(self):
        r = run_job(_spec(), _input(), mode=MemoryMode.SIO,
                    strategy=ReduceStrategy.TR, config=CFG,
                    backend="fast", check=True)
        assert r.check_report is None

    def test_empty_input_is_legal(self):
        r = run_job(_spec(), KeyValueSet(), mode=MemoryMode.SIO,
                    strategy=ReduceStrategy.TR, config=CFG, check=True,
                    backend="sim")
        assert len(r.output) == 0
        assert r.check_report is not None and r.check_report.ok
