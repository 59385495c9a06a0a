"""Tests for record sets, device images, and output buffers."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameworkError
from repro.framework.records import (
    DIR_PER_RECORD,
    DeviceRecordSet,
    KeyValueSet,
    OutputBuffers,
    pack_block,
    pack_groups,
    read_block,
    read_groups,
)
from repro.gpu.memory import GlobalMemory

records_strategy = st.lists(
    st.tuples(st.binary(min_size=0, max_size=40), st.binary(min_size=0, max_size=40)),
    min_size=1,
    max_size=50,
)


class TestKeyValueSet:
    def test_append_and_iterate(self):
        kvs = KeyValueSet([(b"a", b"1"), (b"bb", b"22")])
        assert len(kvs) == 2
        assert list(kvs) == [(b"a", b"1"), (b"bb", b"22")]
        assert kvs[1] == (b"bb", b"22")

    def test_rejects_non_bytes(self):
        kvs = KeyValueSet()
        with pytest.raises(FrameworkError):
            kvs.append("str", b"x")
        with pytest.raises(FrameworkError):
            kvs.append(b"x", 42)

    def test_byte_totals(self):
        kvs = KeyValueSet([(b"abc", b"de"), (b"", b"fgh")])
        assert kvs.key_bytes == 3
        assert kvs.val_bytes == 5
        assert kvs.total_bytes == 8 + 2 * DIR_PER_RECORD

    def test_sorted_by_key(self):
        kvs = KeyValueSet([(b"z", b"1"), (b"a", b"2"), (b"m", b"3")])
        assert [k for k, _ in kvs.sorted_by_key()] == [b"a", b"m", b"z"]

    def test_record_stats(self):
        kvs = KeyValueSet([(b"ab", b"x"), (b"abcd", b"xyz")])
        s = kvs.record_stats()
        assert s["key_mean"] == 3.0
        assert s["val_mean"] == 2.0

    def test_equality(self):
        a = KeyValueSet([(b"k", b"v")])
        b = KeyValueSet([(b"k", b"v")])
        assert a == b
        b.append(b"x", b"y")
        assert a != b

    def test_widths(self):
        kvs = KeyValueSet([(b"ab", b"xyz"), (b"cd", b"x")])
        assert kvs.key_width == 2 and kvs.val_width is None
        assert KeyValueSet().key_width is None
        kvs.append(b"e", b"w")
        assert kvs.key_width is None and kvs.key_bytes == 5

    def test_digest_is_length_framed(self):
        # Separator-joined digests gave both sets 22423e50f05ce002.
        a = KeyValueSet([(b"a\x1fb", b"v"), (b"", b"w")])
        b = KeyValueSet([(b"a", b"v"), (b"b\x1f", b"w")])
        assert a.digest != b.digest
        assert len(a.digest) == 16 and int(a.digest, 16) >= 0
        assert KeyValueSet(list(a)).digest == a.digest

    def test_digest_encoding_is_pinned(self):
        # The count (u64), a 16-byte BLAKE2b of each column's u32 field
        # lengths, then the two plain joins: a new encoding must bump
        # ledger.SCHEMA.
        a = KeyValueSet([(b"a\x1fb", b"v"), (b"", b"w")])
        h = hashlib.blake2b(digest_size=8)
        for part in ((2).to_bytes(8, "little"),
                     hashlib.blake2b(struct.pack("<2I", 3, 0),
                                     digest_size=16).digest(),
                     hashlib.blake2b(struct.pack("<2I", 1, 1),
                                     digest_size=16).digest(),
                     b"a\x1fb", b"vw"):
            h.update(part)
        assert a.digest == h.hexdigest() == "c08d975da1ae281a"

    def test_digest_follows_appends(self):
        kvs = KeyValueSet([(b"k", b"v")])
        before = kvs.digest
        kvs.keys.append(b"k")
        kvs.values.append(b"v")
        assert kvs.digest != before
        assert kvs.digest == KeyValueSet([(b"k", b"v")] * 2).digest


class TestDeviceRecordSet:
    def test_upload_download_roundtrip(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"hello", b"world"), (b"", b"v"), (b"k", b"")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.count == 3
        assert d.download() == kvs

    def test_dir_entries(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"ab", b"xyz"), (b"cde", b"pq")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.dir_entry(0) == (0, 2, 0, 3)
        assert d.dir_entry(1) == (2, 3, 3, 2)

    def test_per_record_access(self):
        g = GlobalMemory()
        d = DeviceRecordSet.upload(g, KeyValueSet([(b"key0", b"val0")]))
        assert d.key_bytes_of(0) == b"key0"
        assert d.val_bytes_of(0) == b"val0"

    def test_out_of_range(self):
        g = GlobalMemory()
        d = DeviceRecordSet.upload(g, KeyValueSet([(b"k", b"v")]))
        with pytest.raises(FrameworkError):
            d.dir_entry(1)

    def test_sizes(self):
        g = GlobalMemory()
        kvs = KeyValueSet([(b"abc", b"de")])
        d = DeviceRecordSet.upload(g, kvs)
        assert d.payload_bytes == 5
        assert d.total_bytes == 5 + DIR_PER_RECORD

    @given(records_strategy)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, records):
        g = GlobalMemory()
        kvs = KeyValueSet(records)
        assert DeviceRecordSet.upload(g, kvs).download() == kvs


class TestOutputBuffers:
    def make(self, g=None, **kw):
        g = g or GlobalMemory()
        defaults = dict(key_capacity=256, val_capacity=256, record_capacity=16)
        defaults.update(kw)
        return g, OutputBuffers.allocate(g, **defaults)

    def test_tails_start_zero(self):
        g, out = self.make()
        assert g.read_u32(out.key_tail) == 0
        assert g.read_u32(out.val_tail) == 0
        assert g.read_u32(out.rec_count) == 0

    def test_as_record_set_reflects_appends(self):
        g, out = self.make()
        # Simulate what the collector does: write record 0 manually.
        g.write(out.keys_addr, b"kk")
        g.write(out.vals_addr, b"vvv")
        g.write_u32(out.key_dir_addr, 0)
        g.write_u32(out.key_dir_addr + 4, 2)
        g.write_u32(out.val_dir_addr, 0)
        g.write_u32(out.val_dir_addr + 4, 3)
        g.write_u32(out.key_tail, 2)
        g.write_u32(out.val_tail, 3)
        g.write_u32(out.rec_count, 1)
        rs = out.as_record_set()
        assert rs.count == 1
        assert rs.download() == KeyValueSet([(b"kk", b"vvv")])

    def test_overflow_detection(self):
        _, out = self.make()
        with pytest.raises(FrameworkError, match="overflow"):
            out.check_reservation(300, 0, 0)
        with pytest.raises(FrameworkError):
            out.check_reservation(0, 300, 0)
        with pytest.raises(FrameworkError):
            out.check_reservation(0, 0, 17)
        out.check_reservation(256, 256, 16)  # exactly at capacity: fine


def _taker(blob: bytes):
    """A ``take`` over ``blob`` that raises past its end, and how far
    it got."""
    pos = [0]

    def take(n: int) -> bytes:
        if pos[0] + n > len(blob):
            raise ValueError(f"wanted {n} bytes at {pos[0]} of {len(blob)}")
        pos[0] += n
        return blob[pos[0] - n:pos[0]]

    return take, pos


def _nul_patterns(width: int) -> list[bytes]:
    """Fields of ``width`` bytes with embedded and trailing NULs."""
    if width == 0:
        return [b""]
    return [b"\x00" * width, b"a" + b"\x00" * (width - 1),
            b"\x00" * (width - 1) + b"z",
            bytes(i % 256 for i in range(width, 0, -1))]


@st.composite
def _fixed_width_column(draw):
    width = draw(st.sampled_from([0, 1, 4, 255, 256, 300]))
    field = st.one_of(st.binary(min_size=width, max_size=width),
                      st.sampled_from(_nul_patterns(width)))
    return draw(st.lists(field, min_size=1, max_size=5))


class TestBlockCodec:
    """One-column blocks of equally wide fields take the void-dtype
    decode; it must keep every byte and stay length-checked."""

    @settings(max_examples=60, deadline=None)
    @given(items=_fixed_width_column())
    def test_fixed_width_column_round_trips(self, items):
        blob = pack_block(items)
        take, pos = _taker(blob)
        (got,) = read_block(take, 1)
        assert got == items
        assert all(type(x) is bytes for x in got)
        assert pos[0] == len(blob)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                read_block(_taker(blob[:cut])[0], 1)

    @settings(max_examples=60, deadline=None)
    @given(keys=_fixed_width_column(), data=st.data())
    def test_groups_round_trip(self, keys, data):
        values = [data.draw(_fixed_width_column()) for _ in keys]
        blob = pack_groups(keys, values)
        take, pos = _taker(blob)
        assert read_groups(take) == (keys, values)
        assert pos[0] == len(blob)
        for cut in range(0, len(blob), 7):
            with pytest.raises(ValueError):
                read_groups(_taker(blob[:cut])[0])

    def test_group_counts_must_match_the_blocks(self):
        blob = bytearray(pack_groups([b"a", b"b"], [[b"1"], [b"2", b"3"]]))
        blob[8:12] = (1).to_bytes(4, "little")  # b's count: 2 -> 1
        with pytest.raises(ValueError, match="2 groups of 2 values"):
            read_groups(_taker(bytes(blob))[0])
