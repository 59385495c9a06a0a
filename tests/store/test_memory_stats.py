"""``MemoryStore`` sizes column chunks only when its stats are read.

``emit_columns`` counts records and keeps the chunk; reading
``stats`` adds the bytes of every chunk not yet sized.  Whenever it
is read — after columnar emits, after either read-back, in mixed
scalar + columnar mode, after close — it must equal the stats of a
store that took the same records one ``emit`` at a time.
"""

import random

import pytest

from repro.framework.columns import Column, ColumnBatch
from repro.store import MemoryStore
from repro.store.base import record_cost


def _pairs(n, seed):
    rng = random.Random(seed)
    return [(b"w%d" % rng.randrange(40) * rng.randrange(1, 3),
             bytes(rng.randrange(256) for _ in range(rng.randrange(6))))
            for _ in range(n)]


def _scalar(pairs):
    ref = MemoryStore()
    for k, v in pairs:
        ref.emit(k, v)
    # Unbounded: nothing leaves the buffer, so the peak is the total.
    total = sum(record_cost(k, v) for k, v in pairs)
    assert ref.stats.emitted_bytes == ref.stats.peak_bytes == total
    return ref


def _chunks(pairs, size=37):
    return [ColumnBatch.from_pairs(pairs[lo:lo + size])
            for lo in range(0, len(pairs), size)]


def test_read_after_emit_columns():
    pairs = _pairs(200, seed=1)
    store = MemoryStore()
    for i, chunk in enumerate(_chunks(pairs)):
        store.emit_columns(chunk)
        # A read between emits sizes what is there; later chunks
        # still count, and nothing counts twice.
        if i == 2:
            assert store.stats.emitted_records == 3 * 37
    ref = _scalar(pairs)
    assert store.stats == ref.stats
    assert store.stats == ref.stats


def test_read_after_column_groups():
    pairs = _pairs(150, seed=2)
    store = MemoryStore()
    for chunk in _chunks(pairs):
        store.emit_columns(chunk)
    grouped = store.column_groups()
    ref = _scalar(pairs)
    ref.finalize()
    assert list(grouped) == list(ref.iter_groups())
    assert store.stats == ref.stats


def test_read_after_iter_groups():
    pairs = _pairs(150, seed=3)
    store = MemoryStore()
    for chunk in _chunks(pairs):
        store.emit_columns(chunk)
    store.finalize()
    got = list(store.iter_groups())
    ref = _scalar(pairs)
    ref.finalize()
    assert got == list(ref.iter_groups())
    assert store.stats == ref.stats


@pytest.mark.parametrize("columns_first", [True, False])
def test_read_in_mixed_mode(columns_first):
    pairs = _pairs(120, seed=4)
    store = MemoryStore()
    head, tail = pairs[:50], pairs[50:90]
    if columns_first:
        store.emit_columns(ColumnBatch.from_pairs(head))
        for k, v in tail:
            store.emit(k, v)
    else:
        for k, v in head:
            store.emit(k, v)
        store.emit_columns(ColumnBatch.from_pairs(tail))
    store.emit_columns(ColumnBatch.from_pairs(pairs[90:]))
    ref = _scalar(pairs)
    assert store.stats == ref.stats
    store.finalize()
    ref.finalize()
    assert list(store.iter_groups()) == list(ref.iter_groups())
    assert store.stats == ref.stats


def test_read_after_close():
    pairs = _pairs(80, seed=5)
    store = MemoryStore()
    store.emit_columns(ColumnBatch.from_pairs(pairs))
    store.column_groups()
    store.close()
    ref = _scalar(pairs)
    ref.finalize()
    list(ref.iter_groups())
    assert store.stats == ref.stats


def test_columnar_read_back_never_sizes_a_column(monkeypatch):
    def unsized(self):
        raise AssertionError("a column was sized")

    pairs = _pairs(60, seed=6)
    store = MemoryStore()
    store.emit_columns(ColumnBatch.from_pairs(pairs))
    monkeypatch.setattr(Column, "nbytes", property(unsized))
    store.finalize()
    assert len(store.column_groups()) == len(set(k for k, _ in pairs))
    with pytest.raises(AssertionError, match="sized"):
        store.stats
