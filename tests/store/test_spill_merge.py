"""The spill store's blocked runs and windowed merge.

* Property: over heavy-duplicate inputs, any mix of ``emit``,
  ``emit_many`` and ``emit_columns``, tiny budgets and blocks of 1–3
  records, the spill store yields exactly the groups the memory store
  yields, with the accounting of per-record ``emit`` — and so does
  :func:`~repro.store.spill.merge_runs` over several producers.
* The merge bound is strict: a key that spans block boundaries in two
  runs must not be taken at the bound.
* A torn run file fails loudly, naming the file, for both readers.
"""

import glob
import os
import tempfile
import time

import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import FrameworkError  # noqa: E402
from repro.framework.columns import ColumnBatch  # noqa: E402
from repro.framework.records import KeyValueSet  # noqa: E402
from repro.store import MemoryStore, SpillStore, spill  # noqa: E402
from repro.store.spill import merge_runs  # noqa: E402


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "little")


def _memory_groups(pairs):
    store = MemoryStore()
    for k, v in pairs:
        store.emit(k, v)
    return list(store.iter_groups())


def _stats(st_):
    return (st_.emitted_records, st_.emitted_bytes, st_.peak_bytes,
            st_.spill_runs, st_.spilled_bytes, st_.merge_fan_in)


def _emit(store, how, chunk):
    if how == "emit":
        for k, v in chunk:
            store.emit(k, v)
    elif how == "many":
        store.emit_many(KeyValueSet(chunk))
    elif how == "pairs":
        store.emit_many(iter(chunk))
    else:
        store.emit_columns(ColumnBatch.from_pairs(chunk))


# Keys from at most five distinct values, so duplicates are heavy and
# one key regularly spans block and run boundaries.
_key = st.sampled_from([b"", b"a", b"ab", b"b", b"\x00"])
_value = st.binary(max_size=6)
_chunk = st.lists(st.tuples(_key, _value), max_size=12)
_calls = st.lists(
    st.tuples(st.sampled_from(["emit", "many", "pairs", "columns"]),
              _chunk),
    max_size=6)


def _tag(calls):
    """Append each record's global emission index to its value, so any
    ordering slip changes the bytes."""
    out, i = [], 0
    for how, chunk in calls:
        tagged = []
        for k, v in chunk:
            tagged.append((k, v + _u32(i)))
            i += 1
        out.append((how, tagged))
    return out


@settings(max_examples=150, deadline=None)
@given(calls=_calls, budget=st.sampled_from([1, 64, 512]),
       block=st.integers(1, 3))
def test_windowed_merge_matches_memory_store(calls, budget, block):
    calls = _tag(calls)
    pairs = [p for _, chunk in calls for p in chunk]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spill, "BLOCK_RECORDS", block)
        store = SpillStore(budget)
        for how, chunk in calls:
            _emit(store, how, chunk)
        ref = SpillStore(budget)
        for k, v in pairs:
            ref.emit(k, v)
        assert list(store.iter_groups()) == _memory_groups(pairs)
        assert list(ref.iter_groups()) == _memory_groups(pairs)
    assert _stats(store.stats) == _stats(ref.stats)


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(_calls, min_size=1, max_size=4),
       budget=st.sampled_from([1, 64, 512]), block=st.integers(1, 3))
def test_merge_runs_matches_memory_store(shards, budget, block):
    shards = [_tag(calls) for calls in shards]
    pairs = [p for calls in shards for _, chunk in calls for p in chunk]
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(spill, "BLOCK_RECORDS", block)
        run_lists = []
        for s, calls in enumerate(shards):
            store = SpillStore(budget, spill_dir=tmp, prefix=f"s{s}")
            for how, chunk in calls:
                _emit(store, how, chunk)
            run_lists.append(store.flush_runs())
            store.close()
        assert list(merge_runs(run_lists)) == _memory_groups(pairs)


def test_strict_bound_key_spanning_blocks_in_two_runs(monkeypatch):
    """Key ``b`` crosses a block boundary in run 0 and in run 1.  The
    first window's bound is ``b`` (run 0's first block ends on it);
    taking records *equal* to the bound would emit run 1's ``b``
    values before run 0's second block, and ``b`` twice."""
    monkeypatch.setattr(spill, "BLOCK_RECORDS", 2)
    keys = [b"a", b"b", b"b", b"b",   # run 0: blocks [a b] [b b]
            b"b", b"b", b"b", b"c",   # run 1: blocks [b b] [b c]
            b"c", b"d"]               # in-memory tail
    pairs = [(k, _u32(i)) for i, k in enumerate(keys)]
    store = SpillStore(4 * (1 + 4 + 16))  # four records per run
    for k, v in pairs:
        store.emit(k, v)
    assert store.run_count == 2
    got = list(store.iter_groups())
    assert got == _memory_groups(pairs)
    assert [k for k, _ in got] == [b"a", b"b", b"c", b"d"]


def test_hot_key_spanning_many_blocks_merges_in_linear_time(monkeypatch):
    """20,000 values of one key in one run, one record per block: the
    merge carries them forward block by block.  Copying the carried
    records at each refill took ~5.7 s here (quadratic); extending
    them in place takes ~0.3 s."""
    monkeypatch.setattr(spill, "BLOCK_RECORDS", 1)
    n = 20_000
    values = [_u32(i) for i in range(n + 1)]
    store = SpillStore(n * (3 + 4 + 16))  # n records per run
    store.emit_many(KeyValueSet((b"hot", v) for v in values))
    assert store.run_count == 1
    t0 = time.perf_counter()
    groups = list(store.iter_groups())
    elapsed = time.perf_counter() - t0
    assert groups == [(b"hot", values)]
    assert elapsed < 3.0, f"hot-key merge took {elapsed:.2f} s"


def test_fields_longer_than_the_format_table_round_trip():
    """Blocks with a field of 256 bytes or more take the reader's
    general ``struct`` format path."""
    pairs = [(b"k" * 5000, bytes(range(256)) * 20), (b"a", b""),
             (b"k" * 5000, b"v" * 4096), (b"", b"x" * 70000)]
    store = SpillStore(1)
    for k, v in pairs:
        store.emit(k, v)
    assert store.run_count == len(pairs) - 1
    assert list(store.iter_groups()) == _memory_groups(pairs)


# ----------------------------------------------------------------------
# Torn run files
# ----------------------------------------------------------------------


def _first_block_spans(path):
    """Offsets of the first block's header, length arrays and blob."""
    with open(path, "rb") as fh:
        n = int.from_bytes(fh.read(4), "little")
    return {"header": 2, "lengths": 4 + 4 * n + 1,
            "blob": os.path.getsize(path) - 3}


@pytest.mark.parametrize("where", ["header", "lengths", "blob"])
@pytest.mark.parametrize("reader", ["iter_groups", "merge_runs"])
def test_torn_run_raises_naming_the_file(tmp_path, monkeypatch, where,
                                         reader):
    monkeypatch.setattr(spill, "BLOCK_RECORDS", 1000)
    pairs = [(b"k%d" % (i % 5), _u32(i)) for i in range(40)]
    store = SpillStore(200, spill_dir=str(tmp_path), prefix="w")
    for k, v in pairs:
        store.emit(k, v)
    if reader == "merge_runs":
        runs = store.flush_runs()
        store.close()
    else:
        runs = sorted(glob.glob(str(tmp_path / "w-*.run")))
    assert len(runs) >= 2
    victim = runs[1]
    with open(victim, "r+b") as fh:
        fh.truncate(_first_block_spans(victim)[where])
    groups = (merge_runs([runs]) if reader == "merge_runs"
              else store.iter_groups())
    with pytest.raises(FrameworkError, match="truncated") as err:
        list(groups)
    assert victim in str(err.value)
    if reader == "iter_groups":
        # The failed merge still removed the store's files.
        assert glob.glob(str(tmp_path / "*.run")) == []
