"""The unbounded in-process store: today's dict shuffle, extracted.

Behaviour is exactly the fast backend's original group-by — a dict of
value lists keyed by key bytes, built in emission order and read back
sorted — so the default execution path stays byte-identical to the
pre-store tree.

Columnar emissions (:meth:`MemoryStore.emit_columns`) are retained as
column chunks instead of being unrolled into the dict; a purely
columnar store can then group with one vectorized argsort
(:meth:`MemoryStore.column_groups`).  Mixed scalar + columnar
emissions degrade gracefully: the chunks drain into the dict and the
classic sorted-items path serves the groups — same bytes either way.

Byte accounting for column chunks is lazy.  ``emit_columns`` counts
records only; sizing a ragged column is a pass over every item, and
the columnar Reduce never reads the bytes.  The chunks not yet sized
are kept aside, and reading :attr:`MemoryStore.stats` adds their
bytes to ``emitted_bytes``.  A memory store is unbounded — nothing
ever leaves its buffer — so its ``peak_bytes`` is always its emitted
total, and is set from it on that same read.  Reading ``stats`` at
any point gives exactly what emitting the same records one at a time
would have left.
"""

from __future__ import annotations

from typing import Iterator

from ..framework.records import KeyValueSet
from .base import IntermediateStore, StoreStats, record_cost

#: Per-record budget-accounting overhead (see :func:`record_cost`).
_OVERHEAD = 16


class MemoryStore(IntermediateStore):
    """Group in an unbounded dict; sort once at read time."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._groups: dict[bytes, list[bytes]] = {}
        self._columns: list = []  # ColumnBatch chunks, emission order
        self._unsized: list = []  # chunks whose bytes stats lacks

    @property
    def stats(self) -> StoreStats:
        """The store's accounting, with every column chunk sized."""
        st = self._stats
        if self._unsized:
            chunks, self._unsized = self._unsized, []
            st.emitted_bytes += sum(
                c.key_bytes + c.val_bytes + _OVERHEAD * len(c)
                for c in chunks
            )
        st.peak_bytes = st.emitted_bytes
        return st

    @stats.setter
    def stats(self, st: StoreStats) -> None:
        self._stats = st

    def emit(self, key: bytes, value: bytes) -> None:
        if self._columns:
            self._drain_columns()
        bucket = self._groups.get(key)
        if bucket is None:
            self._groups[key] = [value]
        else:
            bucket.append(value)
        st = self._stats
        st.emitted_records += 1
        st.emitted_bytes += record_cost(key, value)

    def emit_many(self, pairs) -> None:
        if self._columns or not isinstance(pairs, KeyValueSet):
            super().emit_many(pairs)
            return
        # One inline group-by, then the stats :meth:`emit` would have
        # reached record by record.
        groups = self._groups
        get = groups.get
        for key, value in zip(pairs.keys, pairs.values):
            bucket = get(key)
            if bucket is None:
                groups[key] = [value]
            else:
                bucket.append(value)
        n = len(pairs)
        st = self._stats
        st.emitted_records += n
        st.emitted_bytes += pairs.key_bytes + pairs.val_bytes + _OVERHEAD * n

    def emit_columns(self, cols) -> None:
        n = len(cols)
        if n == 0:
            return
        if self._groups:
            # Scalar emissions already landed: keep one authoritative
            # representation (the dict) rather than interleaving two.
            super().emit_columns(cols)
            return
        self._columns.append(cols)
        self._unsized.append(cols)
        self._stats.emitted_records += n

    def _drain_columns(self) -> None:
        """Unroll retained column chunks into the dict (mixed mode)."""
        chunks, self._columns = self._columns, []
        for cols in chunks:
            for key, value in cols.iter_pairs():
                bucket = self._groups.get(key)
                if bucket is None:
                    self._groups[key] = [value]
                else:
                    bucket.append(value)

    @property
    def group_count(self) -> int:
        if self._columns:
            self._drain_columns()
        return len(self._groups)

    def column_groups(self):
        """Vectorized group-by over retained column chunks.

        Returns a :class:`~repro.framework.columns.GroupedColumns`
        (same groups, same order, same bytes as :meth:`iter_groups`),
        or ``None`` when scalar emissions forced the dict
        representation — callers then use :meth:`iter_groups`.
        """
        if self._groups:
            return None
        if not self._finalized:
            self.finalize()
        from ..framework.columns import ColumnBatch, GroupedColumns

        chunks = self._columns
        if chunks:
            batch = ColumnBatch.concat(chunks)
        else:
            batch = ColumnBatch.from_lists([], [])
        self._stats.merge_fan_in = 1 if len(batch) else 0
        return GroupedColumns.from_batch(batch)

    def iter_groups(self) -> Iterator[tuple[bytes, list[bytes]]]:
        if not self._finalized:
            self.finalize()
        if self._columns:
            self._drain_columns()
        self._stats.merge_fan_in = 1 if self._groups else 0
        yield from sorted(self._groups.items())

    def close(self) -> None:
        # Chunks not yet sized stay referenced, so ``stats`` still
        # reads right after close; they go with the store.
        self._groups = {}
        self._columns = []
