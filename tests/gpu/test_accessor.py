"""Tests for access-traced record views."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.accessor import (
    NULL_TRACE,
    Accessor,
    AccessTrace,
    HostAccessor,
    host_accessor,
    lockstep_accesses,
)


class TestAccessTrace:
    def test_single_byte_touches_one_word(self):
        t = AccessTrace()
        t.touch(5, 1)
        assert t.words == [1]

    def test_range_touches_each_word(self):
        t = AccessTrace()
        t.touch(0, 10)
        assert t.words == [0, 1, 2]

    def test_consecutive_same_word_collapsed(self):
        t = AccessTrace()
        for i in range(4):
            t.touch(i, 1)
        assert t.words == [0]

    def test_revisits_recorded(self):
        t = AccessTrace()
        t.touch(0, 4)
        t.touch(16, 4)
        t.touch(0, 4)
        assert t.words == [0, 4, 0]

    def test_zero_size_ignored(self):
        t = AccessTrace()
        t.touch(10, 0)
        assert len(t) == 0


class TestAccessor:
    def test_indexing_and_len(self):
        a = Accessor(b"hello world")
        assert len(a) == 11
        assert a[0] == ord("h")
        assert a[-1] == ord("d")
        assert a[0:5] == b"hello"

    @pytest.mark.parametrize("idx", [-4, -5, 3, 4])
    def test_index_out_of_range_raises_untraced(self, idx):
        a = Accessor(b"abc")
        with pytest.raises(IndexError):
            a[idx]
        assert a.trace.words == []

    def test_sequential_scan_trace_is_word_count(self):
        data = bytes(64)
        a = Accessor(data)
        for i in range(64):
            _ = a[i]
        assert a.trace.words == list(range(16))

    def test_typed_reads(self):
        data = (42).to_bytes(4, "little") + np.float32(1.5).tobytes()
        a = Accessor(data)
        assert a.u32(0) == 42
        assert a.f32(4) == 1.5
        assert a.trace.words == [0, 1]

    def test_i32(self):
        a = Accessor((-7).to_bytes(4, "little", signed=True))
        assert a.i32(0) == -7

    def test_f32_array(self):
        vals = np.arange(8, dtype=np.float32)
        a = Accessor(vals.tobytes())
        out = a.f32_array()
        assert np.array_equal(out, vals)
        assert a.trace.words == list(range(8))

    def test_u32_array_partial(self):
        vals = np.arange(8, dtype=np.uint32)
        a = Accessor(vals.tobytes())
        out = a.u32_array(off=8, count=2)
        assert list(out) == [2, 3]

    def test_to_bytes_touches_everything(self):
        a = Accessor(bytes(20))
        assert a.to_bytes() == bytes(20)
        assert a.trace.words == [0, 1, 2, 3, 4]

    def test_peek_bytes_untraced(self):
        a = Accessor(b"shh")
        assert a.peek_bytes() == b"shh"
        assert len(a.trace) == 0

    def test_find_charges_scanned_prefix(self):
        a = Accessor(b"x" * 40 + b"needle" + b"x" * 40)
        pos = a.find(b"needle")
        assert pos == 40
        assert a.trace.words[-1] == (40 + 6 - 1) // 4

    def test_find_miss_scans_all(self):
        a = Accessor(b"x" * 32)
        assert a.find(b"zz") == -1
        assert a.trace.words == list(range(8))

    def test_equality(self):
        assert Accessor(b"ab") == b"ab"
        assert Accessor(b"ab") == Accessor(b"ab")
        assert Accessor(b"ab") != b"cd"

    def test_iteration(self):
        a = Accessor(b"abc")
        assert list(a) == [97, 98, 99]

    @given(st.binary(min_size=1, max_size=100))
    def test_slice_matches_bytes(self, data):
        a = Accessor(data)
        assert a[: len(data) // 2] == data[: len(data) // 2]


def _outcome(read):
    """A read's result in comparable form (NaN-safe), or the type of
    the error it raised."""
    try:
        out = read()
    except Exception as e:  # noqa: BLE001 - the type is the outcome
        return type(e)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.tobytes()
    if isinstance(out, float):
        return struct.pack("<d", out)
    return out


class TestHostAccessor:
    """The host executors' untraced view reads exactly what the traced
    one reads, and records nothing."""

    @given(st.binary(max_size=40), st.integers(-40, 44),
           st.integers(-8, 48), st.none() | st.integers(-1, 12),
           st.binary(max_size=3))
    def test_every_read_matches_the_traced_accessor(self, data, off,
                                                    stop, count, needle):
        traced, host = Accessor(data), HostAccessor(data)
        start = max(0, off)
        reads = [
            lambda a: len(a),
            lambda a: a.to_bytes(),
            lambda a: a[off],
            lambda a: a[off:stop],
            lambda a: a[start::2],
            lambda a: list(a),
            lambda a: a.u32(start),
            lambda a: a.i32(start),
            lambda a: a.f32(start),
            lambda a: a.f32_array(start, count),
            lambda a: a.u32_array(start, count),
            lambda a: a.find(needle, start),
        ]
        for read in reads:
            assert (_outcome(lambda: read(host))
                    == _outcome(lambda: read(traced)))
        assert host == traced and hash(host) == hash(traced)
        assert host.trace is NULL_TRACE and len(host.trace) == 0

    def test_host_accessor_builds_one(self):
        a = host_accessor(b"\x01\x00\x00\x00")
        assert isinstance(a, HostAccessor) and isinstance(a, Accessor)
        assert a.u32() == 1 and a.trace is NULL_TRACE


class TestLockstep:
    def test_zip_traces(self):
        t1, t2 = AccessTrace(), AccessTrace()
        t1.touch(0, 8)   # words 0,1
        t2.touch(0, 4)   # word 0
        steps = lockstep_accesses([t1, t2], bases=[1000, 2000])
        assert steps == [[(1000, 4), (2000, 4)], [(1004, 4)]]

    def test_empty(self):
        assert lockstep_accesses([], []) == []

    def test_max_steps_truncates(self):
        t = AccessTrace()
        t.touch(0, 40)
        steps = lockstep_accesses([t], [0], max_steps=3)
        assert len(steps) == 3

    @given(
        st.lists(
            st.lists(st.integers(0, 63), min_size=0, max_size=20), min_size=1, max_size=8
        )
    )
    def test_access_conservation(self, word_lists):
        """Every traced word appears exactly once across the steps."""
        traces = []
        for words in word_lists:
            t = AccessTrace()
            deduped = []
            for w in words:
                if not deduped or deduped[-1] != w:
                    deduped.append(w)
            t.words = deduped
            traces.append(t)
        bases = [i * 4096 for i in range(len(traces))]
        steps = lockstep_accesses(traces, bases)
        total = sum(len(s) for s in steps)
        assert total == sum(len(t.words) for t in traces)
