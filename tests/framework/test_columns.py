"""Unit tests for the columnar record layer (repro.framework.columns).

The whole module exists to be *ordering-exact*: stable sorts keep
emission order among equal keys, group keys come out in ascending
byte order, and every conversion round-trips byte for byte.  These
tests pin those invariants directly, including the classic hazards —
trailing-NUL keys (zero-padding must not merge distinct keys) and
ragged keys (lexicographic byte order, not length-first).
"""

import random
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FrameworkError
from repro.framework import columns
from repro.framework.columns import (
    SHORT_KEY_MAX,
    Column,
    ColumnBatch,
    GroupedColumns,
    sort_and_group,
)
from repro.framework.job import run_job
from repro.framework.records import KeyValueSet

ROOT = Path(__file__).resolve().parents[2]


def _blob_column(keys):
    """A blob-form column of ``keys`` (what a batch kernel emits)."""
    return Column(b"".join(keys),
                  np.array([len(k) for k in keys], dtype=np.int64))


def _grouped_ref(pairs):
    """The MemoryStore contract: dict-of-lists, read back key-sorted."""
    groups = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    return sorted(groups.items())


class TestColumn:
    def test_round_trip_ragged(self):
        items = [b"", b"a", b"longer-item", b"\x00\x00", b"mid"]
        col = Column.from_list(items)
        assert col.tolist() == items
        assert list(col) == items
        assert col.at(2) == b"longer-item"
        assert col.fixed_width is None

    def test_fixed_width_and_views(self):
        arr = np.arange(12, dtype="<u4").reshape(3, 4)
        col = Column.from_array(arr)
        assert col.fixed_width == 16
        assert col.matrix().shape == (3, 16)
        np.testing.assert_array_equal(col.fixed_array("<u4"), arr)

    def test_fixed_array_rejects_misaligned(self):
        col = Column.from_list([b"abc", b"def"])
        with pytest.raises(FrameworkError):
            col.fixed_array("<u4")

    def test_take_fixed_and_ragged(self):
        order = np.array([2, 0, 1])
        fixed = Column.from_list([b"aa", b"bb", b"cc"])
        assert fixed.take(order).tolist() == [b"cc", b"aa", b"bb"]
        ragged = Column.from_list([b"a", b"bbb", b""])
        assert ragged.take(order).tolist() == [b"", b"a", b"bbb"]

    def test_concat_and_repeated(self):
        a = Column.from_list([b"x", b"yy"])
        b = Column.repeated(b"kk", 3)
        cat = Column.concat([a, b])
        assert cat.tolist() == [b"x", b"yy", b"kk", b"kk", b"kk"]

    def test_empty(self):
        col = Column.from_list([])
        assert len(col) == 0
        assert col.tolist() == []
        assert col.fixed_width is None


class TestColumnBatch:
    def test_kvs_round_trip(self):
        kvs = KeyValueSet([(b"k1", b"v1"), (b"", b""), (b"k2", b"vv2")])
        batch = ColumnBatch.from_kvs(kvs)
        assert batch.to_kvs() == kvs
        assert list(batch.iter_pairs()) == list(kvs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FrameworkError):
            ColumnBatch(Column.from_list([b"a"]), Column.from_list([]))


class TestSortAndGroup:
    def _check(self, keys):
        """sort_and_group must reproduce the dict-shuffle contract."""
        col = Column.from_list(keys)
        vals = [b"v%d" % i for i in range(len(keys))]
        grouped = GroupedColumns.from_batch(
            ColumnBatch(col, Column.from_list(vals))
        )
        assert list(grouped) == _grouped_ref(zip(keys, vals))
        return grouped

    def test_narrow_fixed_keys_vectorized(self):
        keys = [b"ba", b"ab", b"ba", b"aa", b"ab"]
        g = self._check(keys)
        assert g.vectorized

    def test_wide_fixed_keys_vectorized(self):
        # 12-byte keys exercise the multi-limb lexsort path.
        keys = [b"x" * 11 + bytes([c]) for c in (3, 1, 2, 1, 3, 0)]
        g = self._check(keys)
        assert g.vectorized

    def test_trailing_nul_keys_stay_distinct(self):
        # The zero-padding hazard: b"a\x00" and b"a\x00\x00" (ragged)
        # must never merge, and fixed-width keys ending in NUL must
        # sort before their non-NUL siblings.
        g = self._check([b"a\x00", b"a\x01", b"a\x00", b"b\x00"])
        assert g.vectorized
        self._check([b"a", b"a\x00", b"a\x00\x00", b"a"])  # ragged

    def test_ragged_keys_fallback_is_exact(self):
        keys = [b"bb", b"a", b"", b"bb", b"aaa", b"a"]
        g = self._check(keys)
        assert not g.vectorized

    def test_empty_key_column_single_group(self):
        g = self._check([b"", b"", b""])
        assert len(g) == 1

    def test_empty_input(self):
        order, starts, vectorized = sort_and_group(Column.from_list([]))
        assert len(order) == 0
        assert list(starts) == [0]
        assert vectorized

    def test_stability_preserves_emission_order(self):
        keys = [b"k"] * 64
        vals = [bytes([i]) for i in range(64)]
        g = GroupedColumns.from_batch(ColumnBatch.from_lists(keys, vals))
        (_, got), = list(g)
        assert got == vals


def _stable_ref(keys):
    """Stable sort permutation and group starts, by plain Python."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    starts = [0] + [i for i in range(1, len(order))
                    if keys[order[i]] != keys[order[i - 1]]]
    return order, starts + [len(keys)]


def _vocab(k, seed):
    """``k`` distinct ragged keys whose first occurrences are shuffled
    out of byte order (hex numerals: ``b"10" < b"9"``)."""
    keys = [b"%x" % i for i in range(k)]
    random.Random(seed).shuffle(keys)
    return keys


class TestRaggedRankCodes:
    """The ragged branch codes records by a representative each, then
    maps those codes through a rank table whose dtype is the narrowest
    that holds the group count.  Pinned against a stable sort at the
    u8/u16 code boundaries, for both the rank and the representative
    codes, with the keys in list form (the dict pass) and in blob form
    (the short-key coding)."""

    def _check(self, keys):
        want_order, want_starts = _stable_ref(keys)
        for col in (Column.from_list(keys), _blob_column(keys)):
            order, starts, vectorized = sort_and_group(col)
            assert not vectorized
            assert order.dtype == np.int64 and starts.dtype == np.int64
            assert order.tolist() == want_order
            assert starts.tolist() == want_starts

    @pytest.mark.parametrize("k", [255, 256, 257, 65535, 65536, 65537])
    def test_code_dtype_boundaries(self, k):
        keys = _vocab(k, seed=k)
        rng = random.Random(-k)
        keys += [rng.choice(keys) for _ in range(k // 2)]
        self._check(keys)

    @pytest.mark.parametrize("k", [255, 256, 257, 65535, 65536, 65537])
    def test_duplicates_of_the_last_key_only(self, k):
        keys = _vocab(k, seed=k)
        last = max(keys)
        self._check(keys + [last] * 3)
        self._check([last] * 2 + keys)

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_empty_key_among_others(self, k):
        keys = _vocab(k - 1, seed=k) + [b""]
        random.Random(k).shuffle(keys)
        self._check(keys + [b"", keys[0], b""])

    def test_first_occurrences_in_reverse_key_order(self):
        keys = sorted(_vocab(300, seed=1), reverse=True)
        self._check(keys + keys[::-1] + keys)


@pytest.fixture
def dict_pass(monkeypatch):
    """Record the record count of every ragged column that takes the
    dict pass."""
    calls, real = [], columns._dict_reps

    def spy(keys):
        calls.append(len(keys))
        return real(keys)

    monkeypatch.setattr(columns, "_dict_reps", spy)
    return calls


class TestShortKeyCoding:
    """Blob-form keys of at most ``SHORT_KEY_MAX`` bytes are grouped by
    hashed limbs and a scatter table; records that lose their bucket
    to another key are coded again from their full hashes, and any
    64-bit collision sends the column to the dict pass.  Every case
    must equal a Python stable sort: order, starts and group keys."""

    HAZARDS = [b"", b"\x00", b"a\x00", b"a\x00\x00", b"\xff" * 16,
               b"a", b"\xff" * 15, b"\xff" * 8, b"\x00" * 16]

    def _check(self, keys):
        want_order, want_starts = _stable_ref(keys)
        col = _blob_column(keys)
        order, starts, vectorized = sort_and_group(col)
        assert not vectorized
        assert order.tolist() == want_order
        assert starts.tolist() == want_starts
        vals = Column.repeated(b"v", len(keys))
        grouped = GroupedColumns.from_batch(ColumnBatch(col, vals))
        assert grouped.keys.tolist() == sorted(set(keys))

    def _vocab(self, k, seed):
        rng = random.Random(seed)
        vocab = set()
        while len(vocab) < k:
            vocab.add(rng.randbytes(rng.randint(0, SHORT_KEY_MAX)))
        return sorted(vocab)

    def test_bucket_clashes_are_coded_exactly(self, dict_pass):
        # 2,500 distinct keys in 2**16 buckets: ~48 clashing pairs are
        # expected, and no clash at all has odds of about e**-47.
        vocab = self._vocab(2500, seed=7)
        rng = random.Random(8)
        keys = vocab + [rng.choice(vocab) for _ in range(5000)]
        rng.shuffle(keys)
        self._check(keys)
        assert dict_pass == []

    def test_every_bucket_clashing(self, monkeypatch, dict_pass):
        # Two buckets: nearly every key is coded by its full hash.
        monkeypatch.setattr(columns, "_BUCKET_BITS", 1)
        vocab = self._vocab(300, seed=3) + self.HAZARDS
        keys = vocab + vocab[::3]
        random.Random(4).shuffle(keys)
        self._check(keys)
        assert dict_pass == []

    def test_hazards_and_a_hot_key(self, dict_pass):
        keys = self.HAZARDS * 3 + [b"hot"] * 5000
        random.Random(5).shuffle(keys)
        self._check(keys + self.HAZARDS[::-1])
        assert dict_pass == []

    def test_long_key_takes_the_dict_pass(self, dict_pass):
        keys = [b"x" * 17, b"a", b"x" * 16, b"", b"a", b"x" * 17]
        self._check(keys)
        assert dict_pass == [len(keys)] * 2  # sort + from_batch

    def test_hash_collision_takes_the_dict_pass(self, monkeypatch,
                                                dict_pass):
        # One hash for every key: the lost records share it, so the
        # exact check finds distinct keys under one code.
        monkeypatch.setattr(columns, "_hash_limbs",
                            lambda lo, hi, lengths: np.zeros_like(lo))
        keys = self.HAZARDS + [b"b", b"a", b"ab"] + self.HAZARDS
        self._check(keys)
        assert dict_pass == [len(keys)] * 2

    def test_list_form_takes_the_dict_pass(self, dict_pass):
        keys = [b"bb", b"a", b"", b"bb"]
        order, starts, _ = sort_and_group(Column.from_list(keys))
        assert (order.tolist(), starts.tolist()) == _stable_ref(keys)
        assert dict_pass == [len(keys)]

    def test_bench_wordcount_input_skips_the_dict_pass(self, monkeypatch,
                                                       dict_pass):
        monkeypatch.syspath_prepend(str(ROOT))
        from bench.workloads import WORKLOADS

        spec, inp = WORKLOADS["wc-columnar"].build(1)
        res = run_job(spec, inp, mode="SIO", strategy="TR",
                      backend="columnar", store="memory")
        assert len(res.output) == 512
        assert dict_pass == []


class TestGroupedColumns:
    def test_shape_accessors(self):
        g = GroupedColumns.from_batch(ColumnBatch.from_lists(
            [b"b", b"a", b"b", b"a", b"c"], [b"1", b"2", b"3", b"4", b"5"]
        ))
        assert len(g) == 3
        assert g.n_values == 5
        assert list(g.group_sizes) == [2, 2, 1]
        assert g.keys.tolist() == [b"a", b"b", b"c"]
