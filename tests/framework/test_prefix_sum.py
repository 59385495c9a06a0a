"""Tests for scan primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.framework.prefix_sum import (
    device_scan_cycles,
    exclusive_scan,
    warp_exclusive_scan,
)
from repro.gpu import Device, DeviceConfig


class TestExclusiveScan:
    def test_basic(self):
        pre, tot = exclusive_scan([3, 1, 4, 1, 5])
        assert pre == [0, 3, 4, 8, 9]
        assert tot == 14

    def test_empty(self):
        assert exclusive_scan([]) == ([], 0)

    @given(st.lists(st.integers(0, 1000), max_size=64))
    def test_property(self, vals):
        pre, tot = exclusive_scan(vals)
        assert tot == sum(vals)
        for i, p in enumerate(pre):
            assert p == sum(vals[:i])


class TestWarpScan:
    def test_runs_on_device_and_matches_pure(self):
        dev = Device(DeviceConfig.small(1))
        got = {}

        def k(ctx):
            pre, tot = yield from warp_exclusive_scan(ctx, [2, 4, 6])
            got["pre"], got["tot"] = pre, tot

        st_ = dev.launch(k, grid=1, block=32, smem_bytes=256)
        assert got == {"pre": [0, 2, 6], "tot": 12}
        # 5 Hillis-Steele rounds: reads + writes + compute.
        assert st_.shared_ops == 10
        assert st_.compute_ops == 5

    def test_lockstep_no_barriers(self):
        """In-warp scan needs no __syncthreads (Section III-D)."""
        dev = Device(DeviceConfig.small(1))

        def k(ctx):
            yield from warp_exclusive_scan(ctx, list(range(32)))

        st_ = dev.launch(k, grid=1, block=32, smem_bytes=256)
        assert st_.barriers == 0


class TestDeviceScanModel:
    def test_zero_is_free(self):
        cfg = DeviceConfig.gtx280()
        assert device_scan_cycles(0, cfg.timing, cfg.mp_count) == 0.0

    def test_monotone_in_n(self):
        cfg = DeviceConfig.gtx280()
        c1 = device_scan_cycles(1000, cfg.timing, cfg.mp_count)
        c2 = device_scan_cycles(100000, cfg.timing, cfg.mp_count)
        assert c2 > c1 > 0

    def test_dominated_by_latency_for_tiny_inputs(self):
        cfg = DeviceConfig.gtx280()
        c = device_scan_cycles(8, cfg.timing, cfg.mp_count)
        assert c == pytest.approx(2 * cfg.timing.global_latency, rel=0.5)
