"""Tests for the functional memory state (global + shared)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, OutOfBoundsError
from repro.gpu.memory import ALLOC_ALIGN, GlobalMemory, SharedMemory


class TestGlobalAllocator:
    def test_alloc_returns_aligned_addresses(self):
        g = GlobalMemory()
        a = g.alloc(100)
        b = g.alloc(1)
        assert a % ALLOC_ALIGN == 0
        assert b % ALLOC_ALIGN == 0
        assert b >= a + 100

    def test_labelled_regions(self):
        g = GlobalMemory()
        a = g.alloc(256, label="keys")
        assert g.region("keys") == (a, 256)

    def test_capacity_exhaustion(self):
        g = GlobalMemory(capacity=1024)
        g.alloc(512)
        with pytest.raises(AllocationError):
            g.alloc(1024)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            GlobalMemory().alloc(-1)

    def test_reset_releases_everything(self):
        g = GlobalMemory()
        g.alloc(1 << 20, label="x")
        g.reset()
        assert g.bytes_allocated == 0
        with pytest.raises(KeyError):
            g.region("x")

    def test_backing_store_grows_lazily(self):
        g = GlobalMemory(capacity=1 << 30)
        addr = g.alloc(1 << 20)
        g.write(addr + (1 << 20) - 4, b"abcd")
        assert g.read(addr + (1 << 20) - 4, 4) == b"abcd"


class TestGlobalAccess:
    def test_round_trip(self):
        g = GlobalMemory()
        a = g.alloc(64)
        g.write(a, b"hello world")
        assert g.read(a, 11) == b"hello world"

    def test_out_of_bounds_read(self):
        g = GlobalMemory()
        g.alloc(64)
        with pytest.raises(OutOfBoundsError):
            g.read(60, 10)

    def test_unallocated_access_fails(self):
        g = GlobalMemory()
        with pytest.raises(OutOfBoundsError):
            g.read(0, 1)

    def test_typed_scalars(self):
        g = GlobalMemory()
        a = g.alloc(16)
        g.write_u32(a, 0xDEADBEEF)
        assert g.read_u32(a) == 0xDEADBEEF
        assert g.read(a, 4) == b"\xef\xbe\xad\xde"  # little-endian

    def test_u32_wraps_like_hardware(self):
        g = GlobalMemory()
        a = g.alloc(4)
        g.write_u32(a, 0xFFFFFFFF)
        g.atomic_add_u32(a, 2)
        assert g.read_u32(a) == 1

    def test_arrays(self):
        g = GlobalMemory()
        a = g.alloc(40)
        g.write_u32_array(a, np.arange(10, dtype=np.uint32))
        assert list(g.read_u32_array(a, 10)) == list(range(10))

    def test_view_is_zero_copy(self):
        g = GlobalMemory()
        a = g.alloc(8)
        g.write(a, b"ABCDEFGH")
        v = g.view(a, 8)
        assert bytes(v) == b"ABCDEFGH"

    def test_atomic_add_returns_old(self):
        g = GlobalMemory()
        a = g.alloc(4)
        assert g.atomic_add_u32(a, 5) == 0
        assert g.atomic_add_u32(a, 7) == 5
        assert g.read_u32(a) == 12

    @given(st.binary(min_size=0, max_size=512), st.integers(0, 100))
    @settings(max_examples=50)
    def test_write_read_roundtrip_property(self, payload, pad):
        g = GlobalMemory()
        a = g.alloc(len(payload) + pad)
        g.write(a, payload)
        assert g.read(a, len(payload)) == payload


class TestSharedMemory:
    def test_size_enforced(self):
        s = SharedMemory(64)
        with pytest.raises(OutOfBoundsError):
            s.write(60, b"hello")

    def test_zero_initialised(self):
        s = SharedMemory(32)
        assert s.read(0, 32) == bytes(32)

    def test_typed_and_atomic(self):
        s = SharedMemory(16)
        s.write_u32(0, 7)
        assert s.atomic_add_u32(0, 3) == 7
        assert s.read_u32(0) == 10
        s.write_u32(8, -1)
        assert s.read_u32(8) == 0xFFFFFFFF

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SharedMemory(0)
