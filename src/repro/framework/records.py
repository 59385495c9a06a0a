"""Key/value record sets and their device memory layout.

Mars and this framework share the same structure-of-arrays layout
(Section II-B / III-B): a *record set* is four device buffers —

* ``keys``    — all key bytes, concatenated;
* ``vals``    — all value bytes, concatenated;
* ``key_dir`` — per record ``(offset, length)`` of its key, 8 bytes;
* ``val_dir`` — per record ``(offset, length)`` of its value.

:class:`KeyValueSet` is the host-side container (plain Python bytes),
:class:`DeviceRecordSet` the device-resident image with addresses into
simulator global memory.  Directories are ``uint32`` little-endian,
matching what the staging copies move byte-for-byte.

The same layout, with lengths in place of offsets, is the host's one
serialised record form, the *block* (:func:`pack_block`,
:func:`read_block`): a ``u32`` record count *n*, then *n* ``u32``
lengths per column, then each column's blob, all little-endian.  A
block is built with one ``b"".join`` and split back with one
``struct`` unpack — or, for one column of equally wide fields, one
``numpy`` void-dtype view — never one record at a time.  The codec has
two forms:

* **pairs** — one two-column (key, value) block: a record set.  The
  distributed backend's wire frames (:mod:`repro.dist.wire`) carry Map
  input and every task's output this way.
* **groups** (:func:`pack_groups`, :func:`read_groups`) — ``(key,
  [value, ...])`` groups: a ``u32`` group count *g*, *g* ``u32``
  per-group value counts, a one-column key block and a one-column
  block of every group's values, flattened.  Each key is written once,
  not once per value.  Spill run files (:mod:`repro.store.spill`) are
  sequences of group blocks, and the wire carries Reduce input this
  way.
"""

from __future__ import annotations

import array
import struct
from dataclasses import dataclass
from hashlib import blake2b
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import FrameworkError
from ..gpu.memory import GlobalMemory

#: Bytes per directory entry (offset u32 + length u32).
DIR_ENTRY = 8

#: Bytes of directory data per record (key entry + value entry).
DIR_PER_RECORD = 2 * DIR_ENTRY


class KeyValueSet:
    """An ordered collection of ``(key: bytes, value: bytes)`` records.

    A record set only grows: every mutator appends (:meth:`append`,
    :meth:`append_unchecked`, :meth:`extend`, or an ``append`` on the
    ``keys``/``values`` lists themselves).  Assigning to, deleting or
    reordering items of ``keys``/``values`` in place is unsupported.

    That rule lets the set memoise its *facts* — :attr:`key_bytes`,
    :attr:`val_bytes`, :attr:`key_width`, :attr:`val_width` and
    :attr:`digest` — each computed at most once, on first use.  The
    memo holds only scalars and stays valid while both lists keep the
    lengths it was filled at: any append changes a length, so the
    append paths pay nothing to keep it honest.
    """

    __slots__ = ("_keys", "_vals", "_facts", "_facts_at")

    def __init__(self, records: Iterable[tuple[bytes, bytes]] = ()):
        self._keys: list[bytes] = []
        self._vals: list[bytes] = []
        self._facts: dict = {}
        self._facts_at = (0, 0)
        for k, v in records:
            self.append(k, v)

    def append(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not isinstance(
            value, (bytes, bytearray)
        ):
            raise FrameworkError("keys and values must be bytes")
        self._keys.append(bytes(key))
        self._vals.append(bytes(value))

    def append_unchecked(self, key: bytes, value: bytes) -> None:
        """Hot-path append: both arguments must already be ``bytes``
        (not bytearray/memoryview) — no validation, no copy."""
        self._keys.append(key)
        self._vals.append(value)

    @classmethod
    def from_lists(cls, keys: list[bytes], values: list[bytes]
                   ) -> "KeyValueSet":
        """Adopt two equally long ``bytes`` lists as the record set,
        with no validation and no copy (the block codec's decoded
        form)."""
        out = cls()
        out._keys = keys
        out._vals = values
        return out

    def extend(self, other: "KeyValueSet") -> None:
        """Append every record of ``other``, in order."""
        self._keys += other._keys
        self._vals += other._vals

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(zip(self._keys, self._vals))

    def __getitem__(self, i: int) -> tuple[bytes, bytes]:
        return self._keys[i], self._vals[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyValueSet):
            return NotImplemented
        return self._keys == other._keys and self._vals == other._vals

    @property
    def keys(self) -> Sequence[bytes]:
        return self._keys

    @property
    def values(self) -> Sequence[bytes]:
        return self._vals

    # -- memoised facts ------------------------------------------------

    def _memo(self) -> dict:
        """The facts memo, emptied first if a record was appended
        since it was filled (class docstring)."""
        at = (len(self._keys), len(self._vals))
        if at != self._facts_at:
            self._facts = {}
            self._facts_at = at
        return self._facts

    def _side(self, side: int) -> tuple[int, int | None, bytes]:
        """:func:`length_facts` of the keys (``side`` 0) or values (1)."""
        memo = self._memo()
        if side not in memo:
            memo[side] = length_facts(self._vals if side else self._keys)
        return memo[side]

    @property
    def key_bytes(self) -> int:
        return self._side(0)[0]

    @property
    def val_bytes(self) -> int:
        return self._side(1)[0]

    @property
    def key_width(self) -> int | None:
        """The common key length, or None when key lengths vary (or
        the set is empty)."""
        return self._side(0)[1]

    @property
    def val_width(self) -> int | None:
        """The common value length, or None as for :attr:`key_width`."""
        return self._side(1)[1]

    @property
    def digest(self) -> str:
        """Content digest: :func:`hash_columns` of both columns."""
        memo = self._memo()
        if "digest" not in memo:
            memo["digest"] = hash_columns(
                len(self._keys), self._side(0)[2], self._side(1)[2],
                self._keys, self._vals)
        return memo["digest"]

    @property
    def total_bytes(self) -> int:
        """Payload plus directory footprint."""
        return self.key_bytes + self.val_bytes + DIR_PER_RECORD * len(self)

    def sorted_by_key(self) -> "KeyValueSet":
        order = sorted(range(len(self)), key=lambda i: self._keys[i])
        out = KeyValueSet()
        for i in order:
            out.append(self._keys[i], self._vals[i])
        return out

    def record_stats(self) -> dict:
        """Mean/stddev of key and value sizes (Table II inputs)."""
        ks = np.array([len(k) for k in self._keys], dtype=float)
        vs = np.array([len(v) for v in self._vals], dtype=float)
        if len(ks) == 0:
            return {"key_mean": 0.0, "key_std": 0.0, "val_mean": 0.0, "val_std": 0.0}
        return {
            "key_mean": float(ks.mean()),
            "key_std": float(ks.std()),
            "val_mean": float(vs.mean()),
            "val_std": float(vs.std()),
        }


def length_facts(items: Sequence[bytes]) -> tuple[int, int | None, bytes]:
    """``(byte total, common width or None, digest of the lengths)`` of
    one column, from one :func:`field_lengths` pass."""
    lens = field_lengths(items)
    width = int(lens[0]) if len(lens) and lens.min() == lens.max() else None
    return (int(lens.sum(dtype=np.int64)), width,
            blake2b(lens, digest_size=16).digest())


def hash_columns(n: int, key_lens: bytes, val_lens: bytes,
                 keys: Sequence[bytes], vals: Sequence[bytes]) -> str:
    """16 hex chars of BLAKE2b over the record count ``n``, the digests
    of both columns' field lengths (:func:`length_facts`) and both
    plain joins.  The lengths frame the joins, so distinct record sets
    never hash the same bytes."""
    h = blake2b(digest_size=8)
    h.update(n.to_bytes(8, "little"))
    h.update(key_lens)
    h.update(val_lens)
    h.update(b"".join(keys))
    h.update(b"".join(vals))
    return h.hexdigest()


def field_lengths(items: Sequence[bytes]) -> np.ndarray:
    """``len`` of each item as little-endian ``u32``."""
    lens = np.frombuffer(array.array("I", map(len, items)), np.uintc)
    return lens.astype("<u4", copy=False)


def pack_block(*columns: Sequence[bytes]) -> bytes:
    """One block of equally long ``bytes`` columns (module docstring)."""
    return b"".join([
        len(columns[0]).to_bytes(4, "little"),
        *[field_lengths(c).tobytes() for c in columns],
        *[b"".join(c) for c in columns],
    ])


#: ``struct`` codes for byte strings of length 0..255.
_FIELD_CODES = [f"{i}s" for i in range(256)]


def _unpack_format(lens: np.ndarray) -> str:
    """The ``struct`` format that splits a blob into fields of
    ``lens`` bytes: one C-level unpack instead of a slice per field."""
    if len(lens) and int(lens.max()) >= len(_FIELD_CODES):
        return "<" + "".join(map("{}s".format, lens.tolist()))
    return "<" + "".join(map(_FIELD_CODES.__getitem__, lens.tolist()))


def read_block(take: Callable[[int], bytes], ncols: int = 2
               ) -> list[list[bytes]]:
    """Split one block of ``ncols`` columns back into ``bytes`` lists.

    ``take(n)`` must return exactly the next ``n`` bytes of the source
    or raise: a source shorter than its own length arrays says fails
    there, never yields short records.
    """
    n = int.from_bytes(take(4), "little")
    lens = np.frombuffer(take(4 * ncols * n), "<u4")
    if ncols == 1 and n and lens.min() == lens.max():
        # Equally wide fields: a void-dtype view splits the blob in C
        # (``V`` keeps NUL bytes, which ``S`` would strip).
        width = int(lens[0])
        blob = take(n * width)
        return [np.frombuffer(blob, f"V{width}").tolist() if width
                else [b""] * n]
    fields = struct.Struct(_unpack_format(lens)).unpack(
        take(int(lens.sum(dtype=np.int64))))
    return [list(fields[i * n:(i + 1) * n]) for i in range(ncols)]


def pack_groups(keys: Sequence[bytes],
                values: Sequence[Sequence[bytes]]) -> bytes:
    """One groups-form block: ``values[i]`` is the value list of
    ``keys[i]`` (module docstring)."""
    return b"".join((
        len(keys).to_bytes(4, "little"), field_lengths(values).tobytes(),
        pack_block(keys), pack_block(list(chain.from_iterable(values))),
    ))


def read_groups(take: Callable[[int], bytes]
                ) -> tuple[list[bytes], list[list[bytes]]]:
    """Split one groups-form block into its keys and value lists.

    ``take`` is as for :func:`read_block`.  Raises ``ValueError`` when
    the group counts disagree with the blocks that follow them.
    """
    g = int.from_bytes(take(4), "little")
    counts = np.frombuffer(take(4 * g), "<u4").tolist()
    (keys,) = read_block(take, 1)
    (values,) = read_block(take, 1)
    if len(keys) != g or len(values) != sum(counts):
        raise ValueError(
            f"groups block: {g} groups of {sum(counts)} values, but "
            f"{len(keys)} keys and {len(values)} values"
        )
    return keys, [values[end - c:end]
                  for c, end in zip(counts, accumulate(counts))]


@dataclass
class DeviceRecordSet:
    """A record set resident in simulator global memory."""

    gmem: GlobalMemory
    count: int
    keys_addr: int
    keys_size: int
    vals_addr: int
    vals_size: int
    key_dir_addr: int
    val_dir_addr: int

    # ------------------------------------------------------------------
    # Host <-> device
    # ------------------------------------------------------------------

    @classmethod
    def upload(
        cls, gmem: GlobalMemory, kvs: KeyValueSet, label: str = "in"
    ) -> "DeviceRecordSet":
        """Copy a host record set into global memory (SoA layout)."""
        n = len(kvs)
        keys_blob = b"".join(kvs.keys)
        vals_blob = b"".join(kvs.values)
        key_dir = np.zeros(2 * n, dtype="<u4")
        val_dir = np.zeros(2 * n, dtype="<u4")
        off = 0
        for i, k in enumerate(kvs.keys):
            key_dir[2 * i] = off
            key_dir[2 * i + 1] = len(k)
            off += len(k)
        off = 0
        for i, v in enumerate(kvs.values):
            val_dir[2 * i] = off
            val_dir[2 * i + 1] = len(v)
            off += len(v)

        keys_addr = gmem.alloc(max(1, len(keys_blob)), f"{label}.keys")
        vals_addr = gmem.alloc(max(1, len(vals_blob)), f"{label}.vals")
        kd_addr = gmem.alloc(max(4, key_dir.nbytes), f"{label}.key_dir")
        vd_addr = gmem.alloc(max(4, val_dir.nbytes), f"{label}.val_dir")
        gmem.write(keys_addr, keys_blob)
        gmem.write(vals_addr, vals_blob)
        gmem.write_u32_array(kd_addr, key_dir)
        gmem.write_u32_array(vd_addr, val_dir)
        return cls(
            gmem=gmem,
            count=n,
            keys_addr=keys_addr,
            keys_size=len(keys_blob),
            vals_addr=vals_addr,
            vals_size=len(vals_blob),
            key_dir_addr=kd_addr,
            val_dir_addr=vd_addr,
        )

    def download(self) -> KeyValueSet:
        """Copy the record set back to the host.

        Vectorized: both directories come back as one array read each,
        and payloads are sliced out of a single blob copy per buffer —
        the per-record ``read_u32``/``read`` round trips dominated the
        host-side cost of every job before this.
        """
        out = KeyValueSet()
        n = self.count
        if n == 0:
            return out
        kd = self.gmem.read_u32_array(self.key_dir_addr, 2 * n)
        vd = self.gmem.read_u32_array(self.val_dir_addr, 2 * n)
        ko, kl = kd[0::2], kd[1::2]
        vo, vl = vd[0::2], vd[1::2]
        if (
            int((ko + kl).max()) > self.keys_size
            or int((vo + vl).max()) > self.vals_size
        ):
            # Degenerate directory (entries past the recorded payload
            # size): fall back to bounds-checked per-record reads.
            for i in range(n):
                o, ln, o2, ln2 = self.dir_entry(i)
                out.append(
                    self.gmem.read(self.keys_addr + o, ln),
                    self.gmem.read(self.vals_addr + o2, ln2),
                )
            return out
        kblob = bytes(self.gmem.view(self.keys_addr, self.keys_size))
        vblob = bytes(self.gmem.view(self.vals_addr, self.vals_size))
        keys = out._keys
        vals = out._vals
        for o, ln, o2, ln2 in zip(
            ko.tolist(), kl.tolist(), vo.tolist(), vl.tolist()
        ):
            keys.append(kblob[o : o + ln])
            vals.append(vblob[o2 : o2 + ln2])
        return out

    # ------------------------------------------------------------------
    # Per-record access
    # ------------------------------------------------------------------

    def dir_entry(self, i: int) -> tuple[int, int, int, int]:
        """``(key_off, key_len, val_off, val_len)`` of record ``i``."""
        if not 0 <= i < self.count:
            raise FrameworkError(f"record index {i} out of range [0,{self.count})")
        ko = self.gmem.read_u32(self.key_dir_addr + DIR_ENTRY * i)
        kl = self.gmem.read_u32(self.key_dir_addr + DIR_ENTRY * i + 4)
        vo = self.gmem.read_u32(self.val_dir_addr + DIR_ENTRY * i)
        vl = self.gmem.read_u32(self.val_dir_addr + DIR_ENTRY * i + 4)
        return ko, kl, vo, vl

    def key_bytes_of(self, i: int) -> bytes:
        ko, kl, _, _ = self.dir_entry(i)
        return self.gmem.read(self.keys_addr + ko, kl)

    def val_bytes_of(self, i: int) -> bytes:
        _, _, vo, vl = self.dir_entry(i)
        return self.gmem.read(self.vals_addr + vo, vl)

    @property
    def payload_bytes(self) -> int:
        return self.keys_size + self.vals_size

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + DIR_PER_RECORD * self.count


@dataclass
class OutputBuffers:
    """Appendable device output buffers with atomic tail counters.

    The single-pass design (Section II-B, last paragraph): output
    regions are over-provisioned, and three 32-bit tail counters in
    global memory are advanced with ``atomicAdd`` — one for key bytes,
    one for value bytes, one for the record count.  These three hot
    words are exactly the contention point the output-staging modes
    exist to relieve.
    """

    gmem: GlobalMemory
    keys_addr: int
    keys_cap: int
    vals_addr: int
    vals_cap: int
    key_dir_addr: int
    val_dir_addr: int
    dir_cap_records: int
    #: Addresses of the three tail counters.
    key_tail: int
    val_tail: int
    rec_count: int

    @classmethod
    def allocate(
        cls,
        gmem: GlobalMemory,
        *,
        key_capacity: int,
        val_capacity: int,
        record_capacity: int,
        label: str = "out",
    ) -> "OutputBuffers":
        keys_addr = gmem.alloc(max(1, key_capacity), f"{label}.keys")
        vals_addr = gmem.alloc(max(1, val_capacity), f"{label}.vals")
        kd = gmem.alloc(max(4, DIR_ENTRY * record_capacity), f"{label}.key_dir")
        vd = gmem.alloc(max(4, DIR_ENTRY * record_capacity), f"{label}.val_dir")
        ctrs = gmem.alloc(12, f"{label}.tails")
        gmem.write(ctrs, bytes(12))
        return cls(
            gmem=gmem,
            keys_addr=keys_addr,
            keys_cap=key_capacity,
            vals_addr=vals_addr,
            vals_cap=val_capacity,
            key_dir_addr=kd,
            val_dir_addr=vd,
            dir_cap_records=record_capacity,
            key_tail=ctrs,
            val_tail=ctrs + 4,
            rec_count=ctrs + 8,
        )

    def check_reservation(self, key_end: int, val_end: int, rec_end: int) -> None:
        """Fail loudly if an atomic reservation ran past capacity."""
        if key_end > self.keys_cap or val_end > self.vals_cap or (
            rec_end > self.dir_cap_records
        ):
            raise FrameworkError(
                "output buffer overflow: reserve to "
                f"(keys={key_end}/{self.keys_cap}, vals={val_end}/"
                f"{self.vals_cap}, recs={rec_end}/{self.dir_cap_records}); "
                "raise the output capacity factor"
            )

    def as_record_set(self) -> DeviceRecordSet:
        """Freeze the appended output into a readable record set."""
        return DeviceRecordSet(
            gmem=self.gmem,
            count=self.gmem.read_u32(self.rec_count),
            keys_addr=self.keys_addr,
            keys_size=self.gmem.read_u32(self.key_tail),
            vals_addr=self.vals_addr,
            vals_size=self.gmem.read_u32(self.val_tail),
            key_dir_addr=self.key_dir_addr,
            val_dir_addr=self.val_dir_addr,
        )
