"""Tests for the half-warp coalescing model (paper Section II-A)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.coalescing import (
    bytes_touched,
    contiguous_transactions,
    scattered_transactions,
    segments_for_range,
    strided_lane_accesses,
)


class TestSegments:
    def test_empty_range(self):
        assert segments_for_range(0, 0, 64) == 0

    def test_aligned_single_segment(self):
        assert segments_for_range(64, 64, 64) == 1

    def test_unaligned_range_spans_two(self):
        assert segments_for_range(60, 8, 64) == 2

    def test_large_range(self):
        assert segments_for_range(0, 1024, 64) == 16


class TestContiguous:
    def test_warp_reading_128_bytes_aligned(self):
        # 32 lanes x 4B, perfectly coalesced: 2 x 64B transactions.
        assert contiguous_transactions(0, 128, 64) == 2

    def test_misaligned_adds_one(self):
        assert contiguous_transactions(4, 128, 64) == 3


class TestScattered:
    def test_coalesced_half_warps(self):
        # Lane i reads word i: each 16-lane half-warp covers one 64B seg.
        acc = strided_lane_accesses(0, 4, 4, 32)
        assert scattered_transactions(acc, 64) == 2

    def test_fully_scattered_one_txn_per_lane(self):
        acc = strided_lane_accesses(0, 256, 4, 32)
        assert scattered_transactions(acc, 64) == 32

    def test_broadcast_same_address(self):
        acc = [(128, 4)] * 32
        assert scattered_transactions(acc, 64) == 2  # one per half-warp

    def test_access_straddling_segments(self):
        assert scattered_transactions([(60, 8)], 64) == 2

    def test_zero_size_access_free(self):
        assert scattered_transactions([(0, 0)] * 32, 64) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 20), st.integers(1, 64)),
            min_size=1,
            max_size=32,
        )
    )
    def test_bounds_property(self, accesses):
        """1 <= txns <= sum of per-access worst cases."""
        n = scattered_transactions(accesses, 64)
        worst = sum(segments_for_range(a, s, 64) for a, s in accesses)
        assert 1 <= n <= worst

    @given(st.integers(0, 1 << 16), st.integers(1, 4096))
    def test_contiguous_never_beats_bandwidth(self, addr, nbytes):
        """Coalesced transactions move at least the requested bytes."""
        n = contiguous_transactions(addr, nbytes, 64)
        assert n * 64 >= nbytes


class TestDispatch:
    def test_bytes_touched(self):
        assert bytes_touched(nbytes=100) == 100
        assert bytes_touched(addrs=[(0, 4), (8, 8)]) == 12
