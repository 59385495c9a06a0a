"""Unit tests for the :mod:`repro.store` layer.

The contract under test: every store yields groups sorted by key bytes
with values in emission order, so Reduce output is byte-identical
regardless of policy — and :class:`~repro.store.spill.SpillStore` keeps
its *tracked* buffer bounded while doing so, cleaning up its run files
on every exit path (including mid-iteration abandonment and errors).
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import resolve
from repro.errors import FrameworkError
from repro.framework.columns import ColumnBatch
from repro.framework.records import KeyValueSet
from repro.store import (
    MemoryStore,
    SpillStore,
    open_store,
)
from repro.store.base import record_cost
from repro.store.spill import merge_runs


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "little")


def _fill(store, pairs):
    store.emit_many(pairs)
    store.finalize()
    return list(store.iter_groups())


def _mixed_pairs(n=300, keys=7):
    """Deterministic interleaving: several hot keys, values tagged
    with their global emission index so ordering bugs are visible."""
    return [(b"k%d" % (i % keys), _u32(i)) for i in range(n)]


# ----------------------------------------------------------------------
# Budget parsing and resolution
# ----------------------------------------------------------------------


def _setting(name, value):
    return resolve({name: value}, names=(name,))[name]


def parse_budget(text):
    return _setting("memory_budget", text)


def resolve_budget(budget):
    return _setting("memory_budget", budget)


def resolve_store_name(name):
    return _setting("store", name)


class TestBudgetParsing:
    """The ``memory_budget`` and ``store`` settings (repro.config)."""

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)

    @pytest.mark.parametrize("text,want", [
        (None, None),
        ("123", 123),
        ("64k", 64 * 1024),
        ("2M", 2 * 2**20),
        ("1g", 2**30),
        (" 512K ", 512 * 1024),
        ("", None),
    ])
    def test_parse_budget(self, text, want):
        assert parse_budget(text) == want

    @pytest.mark.parametrize("text", ["abc", "12q", "0", "-3", "1.5m",
                                      "-1", "  -1 ", "0k"])
    def test_parse_budget_rejects(self, text):
        with pytest.raises(FrameworkError):
            parse_budget(text)

    @pytest.mark.parametrize("value", [0, -1, -64])
    def test_parse_budget_rejects_nonpositive_ints(self, value):
        # A literal 0/-1 used to pass straight through unvalidated.
        with pytest.raises(FrameworkError):
            parse_budget(value)

    def test_parse_budget_accepts_padded_suffix(self):
        assert parse_budget("  64k ") == 64 * 1024

    def test_resolve_budget_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1.5m")
        with pytest.raises(FrameworkError):
            resolve_budget(None)
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "-1")
        with pytest.raises(FrameworkError):
            resolve_budget(None)

    def test_resolve_store_name_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert resolve_store_name(None) == "memory"
        monkeypatch.setenv("REPRO_STORE", "spill")
        assert resolve_store_name(None) == "spill"
        assert resolve_store_name("memory") == "memory"

    def test_resolve_budget_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "4k")
        assert resolve_budget(None) == 4096
        assert resolve_budget(77) == 77

    def test_open_store_honours_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "2k")
        store = open_store("spill", resolve()["memory_budget"])
        try:
            assert isinstance(store, SpillStore)
            assert store.budget == 2048
        finally:
            store.close()

    def test_open_store_unknown_name(self):
        with pytest.raises(FrameworkError):
            open_store("mmap", None)


# ----------------------------------------------------------------------
# Group semantics: spill must be byte-identical to memory
# ----------------------------------------------------------------------


class TestGroupSemantics:
    def test_memory_store_sorted_keys_emission_order(self):
        got = _fill(MemoryStore(), [(b"b", b"1"), (b"a", b"2"),
                                    (b"b", b"3"), (b"a", b"4")])
        assert got == [(b"a", [b"2", b"4"]), (b"b", [b"1", b"3"])]

    @pytest.mark.parametrize("budget", [1, 64, 512, 10**9])
    def test_spill_matches_memory(self, budget):
        pairs = _mixed_pairs()
        want = _fill(MemoryStore(), pairs)
        got = _fill(SpillStore(budget), pairs)
        assert got == want

    def test_budget_smaller_than_one_record(self):
        """A budget below a single record's cost still works: the
        buffer holds exactly the record being emitted, every prior
        record spills, and the tracked peak never exceeds one record."""
        pairs = _mixed_pairs(n=40, keys=3)
        store = SpillStore(1)
        got = _fill(store, pairs)
        assert got == _fill(MemoryStore(), pairs)
        assert store.stats.spill_runs == len(pairs) - 1
        assert store.stats.peak_bytes == max(
            record_cost(k, v) for k, v in pairs
        )

    def test_hot_key_group_exceeds_budget(self):
        """One key whose value list dwarfs the budget: the group is
        materialised outside the tracked buffer, which stays bounded."""
        pairs = [(b"hot", _u32(i)) for i in range(500)]
        store = SpillStore(64)
        groups = _fill(store, pairs)
        assert groups == [(b"hot", [_u32(i) for i in range(500)])]
        assert store.stats.peak_bytes <= 64
        assert store.stats.spill_runs > 1

    def test_empty_input(self):
        store = SpillStore(128)
        assert _fill(store, []) == []
        assert store.stats.spill_runs == 0
        assert store.stats.spilled_bytes == 0
        store.close()  # idempotent

    def test_equal_keys_stable_across_many_runs(self):
        """Values of one key scattered over many spill runs must come
        back in global emission order (runs merge chronologically)."""
        pairs = []
        for i in range(200):
            pairs.append((b"a" if i % 2 else b"z", _u32(i)))
        got = _fill(SpillStore(1), pairs)
        assert got == _fill(MemoryStore(), pairs)

    def test_stats_accounting(self):
        pairs = _mixed_pairs(n=50)
        store = SpillStore(256)
        _fill(store, pairs)
        st = store.stats
        assert st.emitted_records == 50
        assert st.emitted_bytes == sum(record_cost(k, v) for k, v in pairs)
        assert st.peak_bytes <= 256
        # Fan-in counts disk runs plus the in-memory tail sequence.
        assert st.merge_fan_in >= st.spill_runs
        extra = st.as_extra()
        assert extra["spill_runs"] == st.spill_runs
        assert extra["store_peak_bytes"] == st.peak_bytes


_CALLS = st.lists(st.tuples(
    st.sampled_from(["emit", "many", "pairs", "columns"]),
    st.lists(st.tuples(st.sampled_from([b"", b"a", b"ab", b"\x00"]),
                       st.binary(max_size=6)), max_size=12),
), max_size=6)


@settings(max_examples=150, deadline=None)
@given(calls=_CALLS)
def test_memory_emit_many_matches_per_record_emit(calls):
    """``MemoryStore.emit_many``'s record-set fast path, mixed with
    scalar, iterator and columnar emits in any order, leaves the same
    groups and the same :class:`StoreStats` as one ``emit`` per
    record."""
    store, ref = MemoryStore(), MemoryStore()
    i = 0
    for how, chunk in calls:
        # Tag each value with its global index: order slips show.
        chunk = [(k, v + _u32(i + j)) for j, (k, v) in enumerate(chunk)]
        i += len(chunk)
        if how == "emit":
            for k, v in chunk:
                store.emit(k, v)
        elif how == "many":
            store.emit_many(KeyValueSet(chunk))
        elif how == "pairs":
            store.emit_many(iter(chunk))
        else:
            store.emit_columns(ColumnBatch.from_pairs(chunk))
        for k, v in chunk:
            ref.emit(k, v)
    assert store.stats == ref.stats
    store.finalize()
    ref.finalize()
    assert list(store.iter_groups()) == list(ref.iter_groups())
    assert store.stats == ref.stats


# ----------------------------------------------------------------------
# Temp-file lifecycle
# ----------------------------------------------------------------------


def _spill_dirs(root) -> list[str]:
    return glob.glob(os.path.join(str(root), "repro-spill-*"))


class TestSpillDirValidation:
    """A bad $REPRO_SPILL_DIR fails when the job's settings resolve,
    by name — before any store opens, not as an OSError from the first
    spilled run mid-shuffle."""

    def test_missing_dir_fails_at_open(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "nope")
        monkeypatch.setenv("REPRO_SPILL_DIR", missing)
        with pytest.raises(FrameworkError, match="nope"):
            resolve()

    def test_file_as_dir_fails_at_open(self, tmp_path, monkeypatch):
        f = tmp_path / "afile"
        f.write_text("x")
        monkeypatch.setenv("REPRO_SPILL_DIR", str(f))
        with pytest.raises(FrameworkError, match="afile"):
            resolve()

    def test_unwritable_dir_fails_at_open(self, tmp_path, monkeypatch):
        if os.getuid() == 0:
            pytest.skip("root ignores directory permissions")
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o555)
        monkeypatch.setenv("REPRO_SPILL_DIR", str(ro))
        with pytest.raises(FrameworkError, match="not writable"):
            resolve()

    def test_explicit_spill_dir_skips_env(self, tmp_path, monkeypatch):
        # A caller-owned dir is used as-is; the env is not consulted.
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "nope"))
        store = SpillStore(1, spill_dir=str(tmp_path), prefix="s")
        store.emit(b"k", _u32(1))
        store.emit(b"k", _u32(2))
        store.close()


class TestCleanup:
    def test_close_removes_runs_in_shared_dir(self, tmp_path):
        store = SpillStore(1, spill_dir=str(tmp_path), prefix="shard0")
        for i in range(10):
            store.emit(b"k", _u32(i))
        assert glob.glob(str(tmp_path / "shard0-*.run"))
        store.close()
        assert glob.glob(str(tmp_path / "*.run")) == []
        assert tmp_path.exists()  # shared dir belongs to the caller

    def test_own_dir_removed_after_full_iteration(self, tmp_path):
        store = SpillStore(1, root=str(tmp_path))
        for i in range(5):
            store.emit(b"k", _u32(i))
        assert len(_spill_dirs(tmp_path)) == 1
        assert len(list(store.iter_groups())) == 1
        assert _spill_dirs(tmp_path) == []  # iter_groups closes on exhaustion

    def test_abandoned_iteration_still_cleans_up(self, tmp_path):
        store = SpillStore(1, root=str(tmp_path))
        for i in range(20):
            store.emit(b"k%d" % i, _u32(i))
        it = store.iter_groups()
        next(it)  # consume one group, then walk away
        store.close()
        assert _spill_dirs(tmp_path) == []

    def test_flush_runs_transfers_ownership(self, tmp_path):
        """flush_runs hands the files to the caller: close() must not
        delete them, and merge_runs streams them back correctly."""
        store = SpillStore(1, spill_dir=str(tmp_path), prefix="w0")
        pairs = _mixed_pairs(n=30, keys=4)
        store.emit_many(pairs)
        runs = store.flush_runs()
        store.close()
        assert all(os.path.exists(p) for p in runs)
        assert list(merge_runs([runs])) == _fill(MemoryStore(), pairs)

    def test_merge_runs_shard_order(self, tmp_path):
        """Equal keys accumulate shard-by-shard, matching the
        non-spilled shuffle's concatenation order."""
        shards = []
        for shard, base in enumerate((0, 100)):
            store = SpillStore(1, spill_dir=str(tmp_path),
                               prefix=f"s{shard}")
            for i in range(3):
                store.emit(b"k", _u32(base + i))
            shards.append(store.flush_runs())
            store.close()
        merged = list(merge_runs(shards))
        assert merged == [(b"k", [_u32(v) for v in (0, 1, 2,
                                                    100, 101, 102)])]
