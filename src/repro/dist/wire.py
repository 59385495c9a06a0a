"""Length-prefixed binary frames over a stream socket.

A frame is a 4-byte big-endian payload length, then the payload: a
4-byte big-endian header length, a UTF-8 JSON header, and the record
*sections* the header's ``"sections"`` list names, in that order.
Records cross the wire in the paper's structure-of-arrays layout, as
blocks of the codec spill runs use (:mod:`repro.framework.records`),
never as one JSON value per record:

* ``pairs`` — one two-column block: count, key lengths, value
  lengths, key blob, value blob.  :func:`encode` takes a
  :class:`~repro.framework.records.KeyValueSet` or any iterable of
  ``(key, value)`` pairs; :func:`decode` returns a ``KeyValueSet``.
* ``groups`` — one groups-form block (the form spill runs are made
  of): a ``u32`` group count, the per-group value counts, a
  one-column key block and a one-column block of every group's
  values, flattened.  ``(key, [value, ...])`` groups go in and come
  out.

Everything else (type, phase, epoch, seq, shard, attempt, profile,
spilled, spill, message) is header, so ``bytes`` anywhere outside a
section fail at :func:`encode` with ``TypeError``; a message that is
not a dict is a header-only frame.  :func:`decode` length-checks every
section against the frame and rejects trailing bytes: a torn or
corrupt payload raises ``ValueError``, never returns short records.

Workers block on one socket with :func:`recv_msg`; the coordinator
multiplexes sockets under ``selectors`` and feeds each one's bytes to
a :class:`FrameReader`.  Both raise :class:`ConnectionClosed` on EOF,
a bad length prefix, or a payload that does not decode: a stream that
carried one bad frame cannot be trusted to resynchronise.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Iterator

from ..framework.records import (
    KeyValueSet,
    pack_block,
    pack_groups,
    read_block,
    read_groups,
)

#: Sanity cap on a single frame (1 GiB): a corrupt length prefix
#: should fail loudly, not attempt a giant allocation.
MAX_FRAME = 1 << 30

_HDR = struct.Struct(">I")


class ConnectionClosed(Exception):
    """The peer closed the connection (mid-frame or between frames),
    or sent a frame that does not decode."""


def _encode_pairs(pairs) -> bytes:
    if isinstance(pairs, KeyValueSet):
        return pack_block(pairs.keys, pairs.values)
    pairs = list(pairs)
    return pack_block([k for k, _ in pairs], [v for _, v in pairs])


def _encode_groups(groups) -> bytes:
    return pack_groups([k for k, _ in groups], [vs for _, vs in groups])


def _decode_pairs(take) -> KeyValueSet:
    keys, values = read_block(take)
    return KeyValueSet.from_lists(keys, values)


def _decode_groups(take) -> list[tuple[bytes, list[bytes]]]:
    return list(zip(*read_groups(take)))


#: Section name -> (encoder, decoder).
_SECTIONS = {
    "pairs": (_encode_pairs, _decode_pairs),
    "groups": (_encode_groups, _decode_groups),
}


def encode(msg: Any) -> bytes:
    """One wire frame: length prefix, header, record sections."""
    sections: list[bytes] = []
    if isinstance(msg, dict):
        head = {}
        names = []
        for name, value in msg.items():
            codec = _SECTIONS.get(name)
            if codec is None:
                head[name] = value
            else:
                names.append(name)
                sections.append(codec[0](value))
        if names:
            head["sections"] = names
        msg = head
    header = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    size = _HDR.size + len(header) + sum(map(len, sections))
    if size > MAX_FRAME:
        raise ValueError(f"frame too large: {size} bytes")
    return b"".join((_HDR.pack(size), _HDR.pack(len(header)), header,
                     *sections))


def decode(payload: bytes) -> Any:
    """Inverse of the payload half of :func:`encode`; raises
    ``ValueError`` on a payload that does not decode exactly."""
    view = memoryview(payload)
    off = 0

    def take(n: int):
        nonlocal off
        if off + n > len(view):
            raise ValueError(f"frame wants {n} bytes at offset {off}, "
                             f"but holds {len(view)}")
        off += n
        return view[off - n:off]

    (hlen,) = _HDR.unpack(take(_HDR.size))
    msg = json.loads(str(take(hlen), "utf-8"))
    names = msg.pop("sections", []) if isinstance(msg, dict) else []
    if not isinstance(names, list):
        raise ValueError(f"bad section list {names!r}")
    for name in names:
        codec = _SECTIONS.get(name) if isinstance(name, str) else None
        if codec is None:
            raise ValueError(f"unknown section {name!r}")
        msg[name] = codec[1](take)
    if off != len(view):
        raise ValueError(f"{len(view) - off} trailing bytes after the "
                         "last section")
    return msg


def _decode_frame(payload: bytes) -> Any:
    try:
        return decode(payload)
    except ValueError as exc:
        raise ConnectionClosed(f"undecodable frame: {exc}") from exc


def send_msg(sock: socket.socket, msg: Any) -> None:
    """Send one message; propagates ``OSError`` on a dead peer."""
    sock.sendall(encode(msg))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {n - len(buf)} bytes outstanding"
            )
        buf.extend(chunk)
    return bytes(buf)


def recv_msg(sock: socket.socket) -> Any:
    """Block until one complete frame arrives; decode it."""
    (length,) = _HDR.unpack(_recv_exact(sock, _HDR.size))
    if length > MAX_FRAME:
        raise ConnectionClosed(f"bad frame length {length}")
    return _decode_frame(_recv_exact(sock, length))


class FrameReader:
    """Incremental frame decoder for a multiplexed (select) loop.

    Feed it whatever ``recv`` returned; iterate :meth:`frames` for the
    messages completed so far.  Partial frames stay buffered across
    feeds, so the coordinator never blocks waiting for a slow writer.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def frames(self) -> Iterator[Any]:
        while True:
            if len(self._buf) < _HDR.size:
                return
            (length,) = _HDR.unpack(self._buf[: _HDR.size])
            if length > MAX_FRAME:
                raise ConnectionClosed(f"bad frame length {length}")
            end = _HDR.size + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[_HDR.size:end])
            del self._buf[:end]
            yield _decode_frame(payload)
