"""Wire protocol: binary frame round-trips, length checks and the
incremental reader."""

import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import wire
from repro.dist.wire import (
    MAX_FRAME,
    ConnectionClosed,
    FrameReader,
    decode,
    encode,
    recv_msg,
    send_msg,
)
from repro.framework.records import KeyValueSet, pack_block


def _rt(msg):
    return decode(encode(msg)[4:])


def _pairs(out):
    """A decoded ``pairs`` section as a list of tuples."""
    assert isinstance(out, KeyValueSet)
    assert all(type(k) is bytes and type(v) is bytes for k, v in out)
    return list(out)


def _frame(header: dict, *sections: bytes) -> bytes:
    """A hand-built payload (no length prefix)."""
    head = json.dumps(header).encode()
    return len(head).to_bytes(4, "big") + head + b"".join(sections)


_FIELD = st.binary(max_size=300)
_PAIRS = st.lists(st.tuples(_FIELD, _FIELD), max_size=40)
_GROUPS = st.lists(st.tuples(_FIELD, st.lists(_FIELD, max_size=6)),
                   max_size=20)


class TestCodec:
    def test_round_trip_scalars(self):
        for msg in (None, True, 1, -7, 3.5, "hé", [], {}, [1, "a", None]):
            assert decode(encode(msg)[4:]) == msg

    def test_round_trip_bytes(self):
        # Arbitrary binary crosses the wire inside a record section;
        # the same bytes anywhere in the header fail at encode.
        pairs = [(b"\x00\xffbin", b""), (b"", b"\x80")]
        assert _pairs(_rt({"k": 1, "pairs": pairs})["pairs"]) == pairs
        for msg in ({"k": b"\x00\xffbin"}, {"nested": [b"", {"v": b"\x80"}]}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                encode(msg)

    def test_round_trip_pairs_payload(self):
        pairs = [[b"key1", b"\x01\x00"], [b"key2", b"\xfe"]]
        out = _rt({"pairs": pairs})["pairs"]
        assert out.keys == [b"key1", b"key2"]
        assert out.values == [b"\x01\x00", b"\xfe"]
        assert _pairs(out) == [tuple(p) for p in pairs]

    def test_tuple_encodes_as_list(self):
        assert decode(encode((1, 2))[4:]) == [1, 2]
        # Tuples inside sections are records and groups, not lists.
        out = _rt({"pairs": ((b"a", b"1"),),
                   "groups": ((b"k", (b"x", b"y")),)})
        assert _pairs(out["pairs"]) == [(b"a", b"1")]
        assert out["groups"] == [(b"k", [b"x", b"y"])]

    def test_memoryview_and_bytearray(self):
        pairs = [(bytearray(b"ab"), memoryview(b"cd"))]
        assert _pairs(_rt({"pairs": pairs})["pairs"]) == [(b"ab", b"cd")]
        for bad in (bytearray(b"ab"), memoryview(b"cd")):
            with pytest.raises(TypeError):
                encode([bad])

    def test_length_prefix(self):
        frame = encode({"a": 1})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    def test_key_value_set_ships_as_is(self):
        kvs = KeyValueSet.from_lists([b"a", b"b"], [b"1", b""])
        assert _rt({"pairs": kvs})["pairs"] == kvs

    @pytest.mark.parametrize("msg", [
        {"type": "hello", "worker": 3, "pid": 1234},
        {"type": "shutdown"},
        {"type": "error", "phase": "map", "shard": 2, "attempt": 1,
         "epoch": 4, "message": "ValueError: boom"},
    ], ids=["hello", "shutdown", "error"])
    def test_header_only_frames(self, msg):
        payload = encode(msg)[4:]
        hlen = int.from_bytes(payload[:4], "big")
        assert len(payload) == 4 + hlen  # nothing after the header
        assert decode(payload) == msg


class TestSections:
    @settings(max_examples=150, deadline=None)
    @given(pairs=_PAIRS)
    def test_pairs_round_trip(self, pairs):
        assert _pairs(_rt({"type": "result", "pairs": pairs})["pairs"]) \
            == pairs

    @settings(max_examples=150, deadline=None)
    @given(groups=_GROUPS)
    def test_groups_round_trip(self, groups):
        out = _rt({"type": "reduce", "groups": groups})["groups"]
        assert out == [(k, list(vs)) for k, vs in groups]

    @settings(max_examples=50, deadline=None)
    @given(pairs=_PAIRS, groups=_GROUPS)
    def test_both_sections_and_header(self, pairs, groups):
        msg = {"type": "map", "shard": 7, "spill": ["/x", 64],
               "pairs": pairs, "groups": groups}
        out = _rt(msg)
        assert _pairs(out.pop("pairs")) == pairs
        assert out.pop("groups") == [(k, list(vs)) for k, vs in groups]
        assert out == {"type": "map", "shard": 7, "spill": ["/x", 64]}

    @pytest.mark.parametrize("pairs", [
        [],
        [(b"", b"")] * 3,
        [(b"k" * 256, b"v" * 70_000), (b"\xff" * 300, b"")],
        [(i.to_bytes(4, "little") * (i % 7), bytes([i % 256]) * (i % 300))
         for i in range(5000)],
    ], ids=["empty", "zero-length", "wide-fields", "thousands"])
    def test_pairs_edges(self, pairs):
        assert _pairs(_rt({"pairs": pairs})["pairs"]) == pairs

    @pytest.mark.parametrize("groups", [
        [],
        [(b"", []), (b"", [b""])],
        [(b"k" * 256, [b"v" * 1000, b""]), (b"z", [b"\x00" * 256] * 3)],
        [(i.to_bytes(3, "big"), [bytes([i % 256])] * (i % 5))
         for i in range(3000)],
    ], ids=["empty", "zero-length", "wide-fields", "thousands"])
    def test_groups_edges(self, groups):
        assert _rt({"groups": groups})["groups"] == groups

    def test_length_array_claiming_more_than_the_frame_raises(self):
        # One record whose key length says 100 bytes; 3 follow.
        block = ((1).to_bytes(4, "little") + (100).to_bytes(4, "little")
                 + (0).to_bytes(4, "little") + b"abc")
        with pytest.raises(ValueError, match="wants 100 bytes"):
            decode(_frame({"sections": ["pairs"]}, block))

    def test_torn_section_raises(self):
        payload = encode({"pairs": [(b"key", b"value")] * 4})[4:]
        for cut in range(1, len(payload) - 4):
            with pytest.raises(ValueError):
                decode(payload[:-cut])

    def test_trailing_bytes_raise(self):
        payload = encode({"pairs": [(b"k", b"v")]})[4:]
        with pytest.raises(ValueError, match="1 trailing bytes"):
            decode(payload + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            decode(encode({"type": "shutdown"})[4:] + b"x")

    def test_groups_frame_bytes_are_pinned(self):
        """The groups section is the shared groups-form block codec;
        a frame's bytes must not move with it."""
        msg = {"type": "reduce", "shard": 1,
               "groups": [(b"", [b"", b"\x00"]), (b"ab\x00", [b"xxx"]),
                          (b"k", [])]}
        assert encode(msg).hex() == (
            "0000006d000000317b2274797065223a22726564756365222c22736861"
            "7264223a312c2273656374696f6e73223a5b2267726f757073225d7d03"
            "0000000200000001000000000000000300000000000000030000000100"
            "00006162006b0300000000000000010000000300000000787878")

    def test_groups_counts_must_match_blocks(self):
        # Two groups claimed, one key and one value in the blocks.
        section = (b"\x02\x00\x00\x00" + b"\x01\x00\x00\x00" * 2
                   + pack_block([b"k"]) + pack_block([b"v"]))
        with pytest.raises(ValueError):
            decode(_frame({"sections": ["groups"]}, section))

    @pytest.mark.parametrize("payload", [
        b"\x00\x00",                                   # short header length
        b"\x00\x00\x00\x09{}",                         # header cut short
        b"\x00\x00\x00\x02{x",                         # not JSON
        _frame({"sections": ["blob"]}),                # unknown section
        _frame({"sections": "pairs"}),                 # not a list
    ], ids=["short-hlen", "short-header", "bad-json", "unknown", "not-list"])
    def test_bad_header_raises(self, payload):
        with pytest.raises(ValueError):
            decode(payload)

    def test_max_frame_enforced_at_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 64)
        encode({"pairs": [(b"k", b"v")]})
        with pytest.raises(ValueError, match="frame too large"):
            encode({"pairs": [(b"k", b"v" * 64)]})


class TestFrameReader:
    def test_split_feeds(self):
        """Frames arriving one byte at a time still decode exactly."""
        msgs = [{"n": i, "pairs": [(bytes([i]), b"v" * i)],
                 "groups": [(b"g", [bytes([i])] * i)]} for i in range(3)]
        blob = b"".join(encode(m) for m in msgs)
        r = FrameReader()
        got = []
        for i in range(len(blob)):
            r.feed(blob[i:i + 1])
            got.extend(r.frames())
        assert [g["n"] for g in got] == [0, 1, 2]
        assert [_pairs(g["pairs"]) for g in got] == [m["pairs"] for m in msgs]
        assert [g["groups"] for g in got] == [m["groups"] for m in msgs]
        assert r.pending_bytes == 0

    def test_many_frames_one_feed(self):
        r = FrameReader()
        r.feed(b"".join(encode(i) for i in range(10)))
        assert list(r.frames()) == list(range(10))

    def test_partial_frame_stays_buffered(self):
        r = FrameReader()
        frame = encode({"x": "y"})
        r.feed(frame[:-1])
        assert list(r.frames()) == []
        assert r.pending_bytes == len(frame) - 1
        r.feed(frame[-1:])
        assert list(r.frames()) == [{"x": "y"}]

    def test_bad_length_raises(self):
        r = FrameReader()
        r.feed((MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(ConnectionClosed):
            list(r.frames())

    def test_undecodable_frame_raises_connection_closed(self):
        r = FrameReader()
        payload = encode({"pairs": [(b"k", b"v")]})[4:-1]  # torn section
        r.feed(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(ConnectionClosed, match="undecodable"):
            list(r.frames())


class TestSocketRoundTrip:
    def test_send_recv(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"hello": "world", "pairs": [(b"k", b"\x00")]})
            send_msg(a, [1, 2])
            got = recv_msg(b)
            assert got["hello"] == "world"
            assert _pairs(got["pairs"]) == [(b"k", b"\x00")]
            assert recv_msg(b) == [1, 2]
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode({"x": 1})
            a.sendall(frame[:3])
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_msg(b)
        finally:
            b.close()

    def test_clean_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_msg(b)
        finally:
            b.close()

    def test_bad_length_and_garbage_raise(self):
        for data in ((MAX_FRAME + 1).to_bytes(4, "big"),
                     (5).to_bytes(4, "big") + b"junk!"):
            a, b = socket.socketpair()
            try:
                a.sendall(data)
                with pytest.raises(ConnectionClosed):
                    recv_msg(b)
            finally:
                a.close()
                b.close()
