"""Tests for memory-usage modes and strategy fallbacks."""

import pytest

from repro.errors import FrameworkError
from repro.framework import MemoryMode, ReduceStrategy, effective_reduce_mode
from repro.framework.modes import ALL_MODES


class TestModeProperties:
    def test_staging_flags(self):
        assert MemoryMode.SIO.stages_input and MemoryMode.SIO.stages_output
        assert MemoryMode.SI.stages_input and not MemoryMode.SI.stages_output
        assert MemoryMode.SO.stages_output and not MemoryMode.SO.stages_input
        assert not MemoryMode.G.stages_input and not MemoryMode.G.stages_output
        assert not MemoryMode.GT.stages_input

    def test_texture_only_gt(self):
        assert MemoryMode.GT.uses_texture
        assert not any(
            m.uses_texture for m in ALL_MODES if m is not MemoryMode.GT
        )

    def test_all_modes_order_matches_paper(self):
        assert [m.value for m in ALL_MODES] == ["G", "GT", "SI", "SO", "SIO"]


class TestEffectiveReduceMode:
    def test_tr_cannot_stage_input(self):
        """SI -> G and SIO -> SO (Figure 6's footnote)."""
        assert effective_reduce_mode(MemoryMode.SI, ReduceStrategy.TR) is MemoryMode.G
        assert effective_reduce_mode(MemoryMode.SIO, ReduceStrategy.TR) is MemoryMode.SO

    def test_tr_passthrough(self):
        for m in (MemoryMode.G, MemoryMode.GT, MemoryMode.SO):
            assert effective_reduce_mode(m, ReduceStrategy.TR) is m

    def test_br_rejects_texture(self):
        """BR updates values in place; texture caches are incoherent."""
        with pytest.raises(FrameworkError):
            effective_reduce_mode(MemoryMode.GT, ReduceStrategy.BR)

    def test_br_passthrough(self):
        for m in (MemoryMode.G, MemoryMode.SI, MemoryMode.SO, MemoryMode.SIO):
            assert effective_reduce_mode(m, ReduceStrategy.BR) is m
