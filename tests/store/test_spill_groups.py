"""The spill store's group-block runs.

A run is a sequence of group blocks of at most ``BLOCK_RECORDS``
values; a group too large for the room left continues under its key
at the head of the next block.  These tests read the run files back to
show that layout really occurs, and check the merge against the
memory store; that ``spilled_bytes`` is the bytes the runs hold; and
that spilling groups moved no spill point on a real workload.
"""

import os

import pytest

from repro.errors import FrameworkError
from repro.framework import ReduceStrategy, run_job
from repro.framework.records import pack_groups, read_groups
from repro.store import MemoryStore, SpillStore, spill
from repro.store.spill import merge_runs
from repro.workloads import WordCount


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "little")


def _blocks(path: str) -> list[list[tuple[bytes, int]]]:
    """A run file's blocks as ``(key, value count)`` lists."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        assert pos + n <= len(blob)
        pos += n
        return blob[pos - n:pos]

    out = []
    while pos < len(blob):
        keys, values = read_groups(take)
        out.append([(k, len(vs)) for k, vs in zip(keys, values)])
    return out


# Twelve records per run (every record costs 1 + 4 + 16 bytes).
_BUDGET = 12 * 21
_RUNS = [
    # Run 0: h (10 values) spans all three blocks of four values.
    [b"h"] * 5 + [b"z"] + [b"h"] * 4 + [b"a"] + [b"h"],
    # Run 1: h again; every block ends exactly at a group's end.
    [b"k", b"m", b"h", b"b", b"k", b"m", b"k", b"b", b"m", b"h", b"k",
     b"m"],
    # The in-memory tail.
    [b"h", b"k", b"a"],
]
_LAYOUT = [
    [[(b"a", 1), (b"h", 3)], [(b"h", 4)], [(b"h", 3), (b"z", 1)]],
    [[(b"b", 2), (b"h", 2)], [(b"k", 4)], [(b"m", 4)]],
]


@pytest.mark.parametrize("reader", ["iter_groups", "merge_runs"])
def test_group_spanning_blocks_and_runs_matches_memory(tmp_path,
                                                       monkeypatch,
                                                       reader):
    monkeypatch.setattr(spill, "BLOCK_RECORDS", 4)
    pairs = [(k, _u32(i)) for i, k in
             enumerate(k for run in _RUNS for k in run)]
    store = SpillStore(_BUDGET, spill_dir=str(tmp_path), prefix="g")
    ref = MemoryStore()
    for k, v in pairs:
        store.emit(k, v)
        ref.emit(k, v)
    if reader == "merge_runs":
        runs = store.flush_runs()
        store.close()
        assert [_blocks(p) for p in runs[:2]] == _LAYOUT
        assert _blocks(runs[2]) == [[(b"a", 1), (b"h", 1), (b"k", 1)]]
        got = list(merge_runs([runs]))
    else:
        runs = sorted(str(p) for p in tmp_path.glob("g-*.run"))
        assert [_blocks(p) for p in runs] == _LAYOUT
        got = list(store.iter_groups())
    assert got == list(ref.iter_groups())


def test_spilled_bytes_are_the_run_files_bytes(tmp_path):
    pairs = [(b"key-%d" % (i * 7 % 13), _u32(i) * (i % 3))
             for i in range(900)]
    store = SpillStore(2000, spill_dir=str(tmp_path))
    for k, v in pairs:
        store.emit(k, v)
    runs = store.flush_runs()
    assert len(runs) > 5
    assert store.stats.spilled_bytes == sum(map(os.path.getsize, runs))
    store.close()


def _miscounted_block() -> bytes:
    blob = bytearray(pack_groups([b"a", b"b"], [[b"1"], [b"2", b"3"]]))
    blob[4:8] = (2).to_bytes(4, "little")  # a's count: 1 -> 2
    return bytes(blob)


@pytest.mark.parametrize("blob", [
    _miscounted_block(),
    # The store never writes an empty block; one must not reach the
    # merge, which reads every block's last key.
    pack_groups([], []) + pack_groups([b"a"], [[b"1"]]),
], ids=["miscounted", "empty-block"])
def test_inconsistent_run_raises_naming_the_file(tmp_path, blob):
    path = tmp_path / "bad.run"
    path.write_bytes(blob)
    other = tmp_path / "ok.run"
    other.write_bytes(pack_groups([b"b"], [[b"2"]]))
    with pytest.raises(FrameworkError, match="corrupt") as err:
        list(merge_runs([[str(path)], [str(other)]]))
    assert str(path) in str(err.value)


def test_wordcount_spill_points_unchanged():
    """WordCount ``large`` (seed 0) at a 64 KiB budget spills where the
    record-form runs did: the same run count, peak and merge fan-in."""
    w = WordCount()
    res = run_job(w.spec_for_size("large", seed=0),
                  w.generate("large", seed=0), strategy=ReduceStrategy.TR,
                  backend="fast", store="spill", memory_budget=65536)
    extra = res.reduce_stats.extra
    assert (extra["spill_runs"], extra["store_peak_bytes"],
            extra["spill_merge_fan_in"]) == (16, 65534, 17)
