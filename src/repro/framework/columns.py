"""Columnar record batches: the structure-of-arrays layout as arrays.

:class:`~repro.framework.records.KeyValueSet` already *documents* the
Mars/paper structure-of-arrays layout (concatenated key bytes +
concatenated value bytes + per-record directories) but stores it as
Python lists of ``bytes`` — every per-record operation pays interpreter
dispatch.  This module materialises the same layout as numpy arrays
wherever the data vectorizes, so whole batches move through Map,
Shuffle and Reduce with a handful of array operations, the way Lu et
al.'s Xeon Phi runtime SIMD-vectorizes its phases:

* :class:`Column` — one side (keys or values) of a record batch,
  held in one of two forms and converted to the other lazily: a
  Python list of ``bytes``, or a single concatenated ``blob`` plus an
  ``int64`` per-record length array (offsets are the cumulative sum,
  cached on demand).  Fixed-width data is viewed as numpy arrays from
  the blob; ragged data stays in whichever form it was built in, so
  a batch kernel that emits blob-form words (``wc_map_batch``) never
  creates a Python object per word.  ``tolist()`` returns the
  column's own list, which callers must not mutate;
* :class:`ColumnBatch` — a key column and a value column of equal
  record count: the unit batch kernels (``spec.map_batch``) consume
  and produce;
* :func:`sort_and_group` — the vectorized shuffle: a stable argsort
  over key bytes plus group-boundary detection, replacing the
  dict-of-lists group-by.  Fixed-width keys up to 8 bytes sort as one
  big-endian integer argsort (big-endian packing makes integer order
  equal lexicographic byte order); wider fixed keys lexsort 8-byte
  limbs; variable-width keys are coded by a representative record
  each — only the distinct keys are sorted (as ``bytes``, so byte
  order is exact), a rank table turns representative codes into rank
  codes, and a stable argsort over the rank codes orders the records.
  Blob-form keys of at most :data:`SHORT_KEY_MAX` bytes find their
  representatives with array operations (hashed limbs, a scatter
  table, an exact check); any other ragged column does so in one
  dict pass;
* :class:`GroupedColumns` — the grouped intermediate: one entry per
  distinct key, an ``int64`` boundary array and the value column in
  group-major emission order.  Iterating it yields the same
  ``(key, [value, ...])`` groups as a drained
  :class:`~repro.store.memory.MemoryStore`, byte for byte.

Everything here is ordering-exact by construction: stable sorts keep
equal keys in emission order, and group keys come out in ascending
byte order — the invariant every store and backend in this repo pins.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import FrameworkError
from .records import KeyValueSet

_EMPTY_LENGTHS = np.zeros(0, dtype=np.int64)


class Column:
    """One side of a record batch: ``n`` byte strings.

    A column holds one of two forms and builds the other on first use:

    * the **list** form — a Python ``list`` of ``bytes``, what
      :meth:`from_list` keeps (a shallow copy, so a caller's later
      ``append`` cannot change the column) and what a ragged
      :meth:`take` gathers.  :meth:`tolist`, iteration, :meth:`at`
      and ``len`` read it directly, with no join and no slicing back
      out;
    * the **blob** form — ``blob`` holds the payloads back to back and
      ``lengths`` is an ``int64`` array of per-record byte lengths,
      what :meth:`from_array` and :meth:`repeated` build, what the
      fixed-width array views (:meth:`matrix`, :meth:`fixed_array`)
      read, and what ragged batch kernels such as ``wc_map_batch``
      emit: the shuffle codes short blob-form keys with array
      operations (:func:`sort_and_group`), and a ragged :meth:`take`
      slices only the records it gathers.

    ``blob``, ``lengths`` and ``offsets`` (the cumulative sum of the
    lengths: records are contiguous by construction) are cached
    properties; so is the list behind :meth:`tolist`.  A column never
    changes after construction, so both forms, once built, agree.
    """

    __slots__ = ("_items", "_blob", "_lengths", "_offsets")

    def __init__(self, blob: bytes | None = None,
                 lengths: np.ndarray | None = None, *,
                 items: list[bytes] | None = None):
        self._items = items
        self._blob = blob
        self._lengths = lengths
        self._offsets: np.ndarray | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_list(cls, items: Sequence[bytes],
                  width: int | None = None) -> "Column":
        """A list-form column; ``width``, when the caller knows every
        item is that long, gives it its ``lengths`` with no scan."""
        lengths = None if width is None else np.full(len(items), width,
                                                     dtype=np.int64)
        return cls(items=list(items), lengths=lengths)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Column":
        """Fixed-width column from an ``(n, ...)`` array: record ``i``
        is row ``i``'s bytes.  The caller owns dtype/endianness — use
        explicit little-endian dtypes (``"<u4"``, ``"<f4"``) for
        byte-layout parity with the scalar kernels."""
        n = arr.shape[0]
        if n == 0:
            return cls(b"", _EMPTY_LENGTHS)
        arr = np.ascontiguousarray(arr)
        width = arr.nbytes // n
        return cls(arr.tobytes(), np.full(n, width, dtype=np.int64))

    @classmethod
    def repeated(cls, item: bytes, n: int) -> "Column":
        """``n`` copies of one payload (e.g. a constant key)."""
        if n == 0:
            return cls(b"", _EMPTY_LENGTHS)
        return cls(item * n, np.full(n, len(item), dtype=np.int64))

    # -- the two forms -------------------------------------------------

    @property
    def blob(self) -> bytes:
        """The payloads back to back (joined from the list once)."""
        if self._blob is None:
            self._blob = b"".join(self._items)
        return self._blob

    @property
    def lengths(self) -> np.ndarray:
        """``int64`` array of per-record byte lengths."""
        if self._lengths is None:
            items = self._items
            self._lengths = np.fromiter(map(len, items), dtype=np.int64,
                                        count=len(items))
        return self._lengths

    @property
    def offsets(self) -> np.ndarray:
        """``int64`` array of ``n + 1`` offsets into ``blob``."""
        if self._offsets is None:
            lengths = self.lengths
            off = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(lengths, out=off[1:])
            self._offsets = off
        return self._offsets

    def tolist(self) -> list[bytes]:
        """The records as a list — the column's own, cached: callers
        must not mutate it."""
        if self._items is None:
            # Slicing with Python ints: indexing the int64 offsets one
            # record at a time costs about twice the slicing itself.
            blob, off = self._blob, self.offsets.tolist()
            self._items = [blob[lo:hi] for lo, hi in zip(off, off[1:])]
        return self._items

    # -- shape ---------------------------------------------------------

    def __len__(self) -> int:
        if self._items is not None:
            return len(self._items)
        return len(self._lengths)

    @property
    def nbytes(self) -> int:
        if self._blob is not None:
            return len(self._blob)
        return sum(map(len, self._items))

    @property
    def fixed_width(self) -> int | None:
        """Common record width, or None for ragged/empty columns."""
        n = len(self)
        if n == 0:
            return None
        if self._lengths is None:
            # List form: stop at the first odd length (ragged lists
            # show one within a few items); a fixed-width list gets
            # its lengths array for free.
            items = self._items
            w = len(items[0])
            for item in items:
                if len(item) != w:
                    return None
            self._lengths = np.full(n, w, dtype=np.int64)
            return w
        lengths = self._lengths
        w = int(lengths[0])
        if n == 1 or (int(lengths.min()) == w and int(lengths.max()) == w):
            return w
        return None

    # -- vectorized views ---------------------------------------------

    def matrix(self) -> np.ndarray:
        """``(n, width)`` uint8 view of a fixed-width column."""
        w = self.fixed_width
        if w is None:
            raise FrameworkError("matrix() needs a fixed-width column")
        return np.frombuffer(self.blob, dtype=np.uint8).reshape(len(self), w)

    def fixed_array(self, dtype) -> np.ndarray:
        """``(n, width // itemsize)`` view of a fixed-width column."""
        w = self.fixed_width
        item = np.dtype(dtype).itemsize
        if w is None or w % item:
            raise FrameworkError(
                f"column is not a fixed multiple of {np.dtype(dtype)}"
            )
        return np.frombuffer(self.blob, dtype=dtype).reshape(
            len(self), w // item
        )

    # -- record access -------------------------------------------------

    def at(self, i: int) -> bytes:
        if self._items is not None:
            return self._items[i]
        lo, hi = self.offsets[i:i + 2].tolist()
        return self._blob[lo:hi]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.tolist())

    # -- transforms ----------------------------------------------------

    def take(self, order: np.ndarray) -> "Column":
        """Gather records into a new column: a vectorized gather when
        fixed-width (through a typed 1-D view for 1/2/4/8-byte
        records), else a list gather that slices only the taken
        records out of a blob-form column."""
        w = self.fixed_width
        if w is not None:
            if w in (1, 2, 4, 8):
                data = np.frombuffer(self.blob, dtype=f"u{w}").take(order)
            else:
                data = self.matrix()[order]
            return Column(data.tobytes(),
                          np.full(len(order), w, dtype=np.int64))
        if self._items is not None:
            items = self._items
            return Column(items=[items[i] for i in order.tolist()])
        blob, lengths = self._blob, self.lengths.take(order)
        lo = self.offsets.take(order)
        return Column(items=[blob[a:b] for a, b in
                             zip(lo.tolist(), (lo + lengths).tolist())],
                      lengths=lengths)

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """One column of every record of ``columns``, in order: joined
        blobs when every part holds its blob, else joined lists."""
        if len(columns) == 1:
            return columns[0]
        if not columns:
            return cls(b"", _EMPTY_LENGTHS)
        if all(c._blob is not None for c in columns):
            return cls(
                b"".join(c._blob for c in columns),
                np.concatenate([c.lengths for c in columns]),
            )
        items: list[bytes] = []
        for c in columns:
            items += c.tolist()
        return cls(items=items)


class ColumnBatch:
    """A batch of records in columnar form: key column + value column."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: Column, values: Column):
        if len(keys) != len(values):
            raise FrameworkError(
                f"key/value column lengths differ: "
                f"{len(keys)} vs {len(values)}"
            )
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def key_bytes(self) -> int:
        return self.keys.nbytes

    @property
    def val_bytes(self) -> int:
        return self.values.nbytes

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_lists(cls, keys: Sequence[bytes], values: Sequence[bytes]
                   ) -> "ColumnBatch":
        return cls(Column.from_list(keys), Column.from_list(values))

    @classmethod
    def from_kvs(cls, kvs: KeyValueSet) -> "ColumnBatch":
        return cls.from_lists(kvs.keys, kvs.values)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[bytes, bytes]]
                   ) -> "ColumnBatch":
        ks, vs = [], []
        for k, v in pairs:
            ks.append(k)
            vs.append(v)
        return cls.from_lists(ks, vs)

    def to_kvs(self) -> KeyValueSet:
        # Copies: the record set is the caller's to mutate, the
        # columns' lists are not.
        return KeyValueSet.from_lists(list(self.keys.tolist()),
                                      list(self.values.tolist()))

    def iter_pairs(self) -> Iterator[tuple[bytes, bytes]]:
        return zip(self.keys, self.values)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        if len(batches) == 1:
            return batches[0]
        return cls(
            Column.concat([b.keys for b in batches]),
            Column.concat([b.values for b in batches]),
        )


# ----------------------------------------------------------------------
# Vectorized shuffle: stable key sort + group-boundary detection
# ----------------------------------------------------------------------


def _key_limbs(keys: Column) -> np.ndarray:
    """``(n, ceil(w/8))`` array of big-endian u64 limbs per key.

    Zero-padding the *tail* limb is order-safe because every key in a
    fixed-width column has the same length — no comparison ever
    crosses a length boundary.  Big-endian packing makes unsigned
    integer order equal lexicographic byte order.
    """
    mat = keys.matrix()
    n, w = mat.shape
    n_limbs = -(-w // 8)
    padded = np.zeros((n, n_limbs * 8), dtype=np.uint8)
    padded[:, :w] = mat
    return padded.view(">u8").reshape(n, n_limbs)


#: Blob-form ragged keys of at most this many bytes (two u64 limbs)
#: are grouped with array operations; longer keys take the dict pass.
SHORT_KEY_MAX = 16
#: log2 of the short-key scatter table's bucket count.
_BUCKET_BITS = 16
#: Per key length 0..16, the masks that keep a key's own bytes of its
#: two little-endian limbs (bytes 0-7 and 8-15) and zero the rest.
_LIMB_MASKS = np.array(
    [[(1 << 8 * min(w, 8)) - 1 for w in range(SHORT_KEY_MAX + 1)],
     [(1 << 8 * max(w - 8, 0)) - 1 for w in range(SHORT_KEY_MAX + 1)]],
    dtype=np.uint64)
_MUL = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F))
_LENGTH_SALT = np.arange(SHORT_KEY_MAX + 1, dtype=np.uint64) * _MUL[0]


def _hash_limbs(lo: np.ndarray, hi: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """One ``u64`` hash per key from its masked limbs and length
    (products wrap modulo 2**64)."""
    h = lo * _MUL[0]
    h ^= hi * _MUL[1]
    h ^= _LENGTH_SALT.take(lengths)
    h ^= h >> np.uint64(31)
    h *= _MUL[1]
    return h


def _dict_reps(keys: Column
               ) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """``(rep_of, reps, distinct)`` for any ragged column, in one hash
    pass: ``dict.setdefault`` codes each record by the index where its
    key first occurs (``rep_of``); ``reps`` are those indices and
    ``distinct`` their keys, in first-occurrence order."""
    items = keys.tolist()
    n = len(items)
    first: dict[bytes, int] = {}
    rep_of = np.fromiter(map(first.setdefault, items, range(n)),
                         dtype=np.min_scalar_type(n), count=n)
    reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return rep_of, reps, list(first)


def _short_limbs(keys: Column) -> tuple[np.ndarray, np.ndarray]:
    """Each key's bytes 0-7 and 8-15 as little-endian ``u64`` limbs,
    zero past its length: one 16-byte load per record offset of a
    zero-padded copy of the blob, masked by length."""
    blob = keys.blob
    # Element j of this byte-strided view is the 16 bytes at offset j.
    # Indexing it, unlike ``take``, does not first copy the unaligned
    # view whole into an aligned buffer.
    spans = np.ndarray((len(blob) + 1,), dtype="V16",
                       buffer=blob + bytes(16), strides=(1,))
    limbs = spans[keys.offsets[:-1]].view("<u8").reshape(-1, 2)
    lengths = keys.lengths
    return (limbs[:, 0] & _LIMB_MASKS[0].take(lengths),
            limbs[:, 1] & _LIMB_MASKS[1].take(lengths))


def _bucket_survivors(h: np.ndarray) -> np.ndarray:
    """Per record, the one record of its bucket (the top
    :data:`_BUCKET_BITS` bits of ``h``) that a scatter of every
    record index into the bucket table leaves standing."""
    bucket = (h >> np.uint64(64 - _BUCKET_BITS)).view(np.int64)
    table = np.empty(1 << _BUCKET_BITS, dtype=np.int64)
    table[bucket] = np.arange(len(h))
    return table.take(bucket)


def _short_key_reps(keys: Column
                    ) -> tuple[np.ndarray, np.ndarray, list[bytes]] | None:
    """:func:`_dict_reps`' result for a blob-form column with array
    operations, or ``None`` when a key is longer than
    :data:`SHORT_KEY_MAX` or two distinct keys share a 64-bit hash.

    Limbs plus length identify a short key exactly
    (:func:`_short_limbs`).  Their hash puts each record in one of
    ``2**_BUCKET_BITS`` buckets, and each bucket's survivor
    (:func:`_bucket_survivors`) represents its records.  Records whose
    limbs or length differ from their representative's lost the
    bucket to another key; no survivor can hold their key, since
    equal keys hash alike.  Only that subset is coded again, by its
    full hashes (``np.unique``), and each must then equal its new
    representative exactly — a mismatch is a 64-bit collision.
    """
    lengths = keys.lengths
    if int(lengths.max()) > SHORT_KEY_MAX:
        return None
    lo, hi = _short_limbs(keys)
    h = _hash_limbs(lo, hi, lengths)
    rep_of = _bucket_survivors(h)
    fields = (lo, hi, lengths)
    clash = np.zeros(len(h), dtype=bool)
    for f in fields:
        clash |= f != f.take(rep_of)
    lost = np.flatnonzero(clash)
    if len(lost):
        _, first, inverse = np.unique(h.take(lost), return_index=True,
                                      return_inverse=True)
        rep = lost.take(first).take(inverse)
        if any((f.take(lost) != f.take(rep)).any() for f in fields):
            return None
        rep_of[lost] = rep
    reps = np.flatnonzero(rep_of == np.arange(len(h)))
    lo_off = keys.offsets.take(reps)
    hi_off = lo_off + lengths.take(reps)
    blob = keys.blob
    return rep_of, reps, [blob[a:b] for a, b in
                          zip(lo_off.tolist(), hi_off.tolist())]


def sort_and_group(keys: Column) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stable sort permutation + group boundaries over key bytes.

    Returns ``(order, starts, vectorized)``: ``order`` is an ``int64``
    permutation sorting the records by key bytes (stable — equal keys
    keep emission order); ``starts`` is an ``int64`` array of group
    start indices into the sorted order, with a final ``n`` sentinel
    (``len(starts) - 1`` groups); ``vectorized`` reports whether the
    fixed-width array sort ran (``False``: ragged keys were coded by
    representative).

    Ragged keys are first mapped to a representative record each, one
    per distinct key: by :func:`_short_key_reps` with array operations
    when the column is in blob form and no key is longer than
    :data:`SHORT_KEY_MAX`, else (or when that path finds a 64-bit hash
    collision) by :func:`_dict_reps` in one dict pass.  The distinct
    keys alone are sorted, and an ``n``-sized rank table
    (``rank[representative of the j-th smallest key] = j``, in the
    narrowest dtype that holds the group count, so numpy's radix sort
    applies) turns representatives into rank codes with one gather.
    """
    n = len(keys)
    if n == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64), True)
    w = keys.fixed_width
    if w == 0:
        # Every key is b"": one group, emission order.
        return (np.arange(n, dtype=np.int64),
                np.array([0, n], dtype=np.int64), True)
    if w is not None and w <= 8:
        ints = _key_limbs(keys).reshape(n)
        order = np.argsort(ints, kind="stable").astype(np.int64, copy=False)
        s = ints[order]
        bounds = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate((
            np.zeros(1, dtype=np.int64), bounds.astype(np.int64),
            np.array([n], dtype=np.int64),
        ))
        return order, starts, True
    if w is not None:
        limbs = _key_limbs(keys)
        # lexsort: last key is most significant; each pass is stable,
        # so the whole permutation is stable in emission order.
        order = np.lexsort(
            tuple(limbs[:, j] for j in range(limbs.shape[1] - 1, -1, -1))
        ).astype(np.int64, copy=False)
        s = limbs[order]
        bounds = np.flatnonzero((s[1:] != s[:-1]).any(axis=1)) + 1
        starts = np.concatenate((
            np.zeros(1, dtype=np.int64), bounds.astype(np.int64),
            np.array([n], dtype=np.int64),
        ))
        return order, starts, True
    # Ragged keys: representatives, then the rank table (see above).
    # Python sorts the distinct keys by raw bytes, and the stable
    # argsort keeps equal keys in emission order.
    found = _short_key_reps(keys) if keys._blob is not None else None
    rep_of, reps, distinct = found or _dict_reps(keys)
    k = len(distinct)
    # The narrowest code dtype: numpy's stable sort is a radix sort
    # for codes of 16 bits or fewer.
    rank = np.empty(n, dtype=np.min_scalar_type(k))
    rank[reps.take(sorted(range(k), key=distinct.__getitem__))] = \
        np.arange(k)
    codes = rank.take(rep_of)
    order = np.argsort(codes, kind="stable").astype(np.int64, copy=False)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=k), out=starts[1:])
    return order, starts, False


class GroupedColumns:
    """The grouped, key-sorted intermediate in columnar form.

    ``keys`` holds one entry per distinct key in ascending byte order;
    ``offsets`` (``int64``, ``n_groups + 1``) delimits each group's
    slice of ``values``, which carries every value in group-major
    order with emission order preserved inside each group — exactly
    the ``(key, [value, ...])`` stream a drained
    :class:`~repro.store.memory.MemoryStore` yields.
    """

    __slots__ = ("keys", "offsets", "values", "vectorized")

    def __init__(self, keys: Column, offsets: np.ndarray, values: Column,
                 *, vectorized: bool = True):
        self.keys = keys
        self.offsets = offsets
        self.values = values
        #: Did the fixed-width array sort run (vs ragged hash grouping)?
        self.vectorized = vectorized

    @classmethod
    def from_batch(cls, cols: ColumnBatch) -> "GroupedColumns":
        order, starts, vectorized = sort_and_group(cols.keys)
        first = order[starts[:-1]]
        return cls(
            keys=cols.keys.take(first),
            offsets=starts,
            values=cols.values.take(order),
            vectorized=vectorized,
        )

    def __len__(self) -> int:
        """Number of distinct keys (groups)."""
        return len(self.keys)

    @property
    def n_values(self) -> int:
        return int(self.offsets[-1])

    @property
    def group_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __iter__(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Scalar view: ``(key, [value, ...])`` per group — the exact
        stream the scalar Reduce loop consumes."""
        vals = self.values.tolist()
        off = self.offsets.tolist()
        for key, lo, hi in zip(self.keys.tolist(), off, off[1:]):
            yield key, vals[lo:hi]
