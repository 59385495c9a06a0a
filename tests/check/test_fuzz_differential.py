"""The differential fuzzer as a test: sim (sanitized) vs fast vs
dist vs oracle."""

import pytest

import repro.check.fuzz as fuzz_mod
from repro.check.fuzz import (
    FuzzCase,
    build_input,
    draw_case,
    run_case,
    run_fuzz,
)
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.framework.records import KeyValueSet
from repro.gpu.accessor import host_accessor
from repro.gpu.config import DeviceConfig

CFG = DeviceConfig.small(2)


class TestGenerator:
    def test_cases_are_reproducible(self):
        assert draw_case(7, 42) == draw_case(7, 42)
        assert build_input(draw_case(7, 42)).keys == \
            build_input(draw_case(7, 42)).keys

    def test_br_never_pairs_with_gt(self):
        for i in range(400):
            c = draw_case(3, i)
            assert not (c.strategy is ReduceStrategy.BR
                        and c.mode is MemoryMode.GT)

    def test_ordered_kind_is_tr_only(self):
        kinds = [draw_case(3, i) for i in range(400)]
        ordered = [c for c in kinds if c.kind == "ordered"]
        assert ordered
        assert {c.strategy for c in ordered} == {ReduceStrategy.TR}

    def test_degenerate_shapes_are_generated(self):
        sizes = {draw_case(7, i).n_records for i in range(200)}
        assert 0 in sizes and 1 in sizes  # empty and singleton inputs


class TestTargetedCases:
    """Hand-picked corners run through the full three-way check."""

    def _case(self, **kw):
        base = dict(index=0, kind="identity", n_records=8, key_pool=2,
                    mode=MemoryMode.SIO, strategy=None,
                    threads_per_block=64, io_ratio=None)
        base.update(kw)
        return FuzzCase(**base)

    def test_empty_input_every_mode(self):
        for mode in MemoryMode:
            assert run_case(self._case(n_records=0, mode=mode), CFG) is None

    def test_single_hot_key_reduction(self):
        for strat in (ReduceStrategy.TR, ReduceStrategy.BR):
            case = self._case(kind="sum", n_records=33, key_pool=1,
                              strategy=strat)
            assert run_case(case, CFG) is None

    def test_zero_output_map(self):
        assert run_case(self._case(kind="null", n_records=16), CFG) is None

    def test_ordered_reduce_sees_value_order(self):
        spec = fuzz_mod._make_spec("ordered", None)
        vals = [b"\x01", b"\x02\x00", b"", b"\x03\x00\x00\x07"]
        outs = []
        for group in (vals, vals[::-1], [vals[1], vals[0]] + vals[2:]):
            out = KeyValueSet()
            spec.reduce_record(host_accessor(b"k"),
                               [host_accessor(v) for v in group],
                               lambda k, v: out.append(k, v), None)
            outs.append(out.values[0])
        assert len(set(outs)) == 3

    def test_ordered_kind_hot_key(self):
        case = self._case(kind="ordered", n_records=33, key_pool=1,
                          strategy=ReduceStrategy.TR)
        assert run_case(case, CFG) is None

    def test_overflow_forcing_burst(self):
        case = self._case(kind="burst", n_records=64, key_pool=1,
                          io_ratio=0.3)
        assert run_case(case, CFG) is None


class TestFuzzSweep:
    def test_pinned_seed_sweep_is_clean(self):
        assert run_fuzz(7, 120) == []

    @pytest.mark.fuzz
    def test_ci_seed_full_sweep_is_clean(self):
        """The exact sweep CI's fuzz tier pins: seed 7, 200 cases."""
        assert run_fuzz(7, 200) == []

    @pytest.mark.fuzz
    def test_alternate_seed_sweep_is_clean(self):
        """A second seed so the pinned one can't rot into the only
        shape the stack survives."""
        assert run_fuzz(20260806, 120) == []


class TestFailureReporting:
    def test_failure_prints_seeded_repro_command(self, monkeypatch, capsys):
        """Each FAIL line carries a copy-pasteable command that pins
        the seed and case index — a fuzz failure in CI must be
        reproducible from the log alone."""
        monkeypatch.setattr(fuzz_mod, "run_case",
                            lambda case, config: "injected failure")
        failures = run_fuzz(5, 2)
        assert len(failures) == 2
        err = capsys.readouterr().err
        assert "repro: python -m repro.check.fuzz --seed 5 --only 0" in err
        assert "repro: python -m repro.check.fuzz --seed 5 --only 1" in err
        assert "injected failure" in err
