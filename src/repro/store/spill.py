"""The spillable out-of-core store: key-sorted group runs + a windowed merge.

Greiner & Jacob's parallel-external-memory analysis of MapReduce
models the shuffle as exactly this: when the intermediate working set
exceeds the memory budget *M*, write key-sorted runs of ~*M* bytes and
merge them back in one streaming pass.  :class:`SpillStore` is the
host-side implementation, and it moves *groups* — a key with its
values — never one record at a time:

* **emit** groups each record into an in-memory key -> values dict
  (:class:`~repro.store.memory.MemoryStore`'s, filled in emission
  order) whose approximate byte size
  (:func:`~repro.store.base.record_cost` per record) is tracked; when
  adding a record would push the buffer past the budget, the buffer is
  written to a temp run file first — so the tracked buffer never
  exceeds ``max(budget, one record)``.  ``emit_many`` (given a
  :class:`~repro.framework.records.KeyValueSet`) and ``emit_columns``
  replay that per-record rule over a cumulative-cost array in one
  helper, :meth:`SpillStore._replay`, which searches for each spill
  point: its loop runs once per spill, not once per record;
* a spill sorts only the buffer's distinct keys and writes their
  groups, in key order, as *group blocks*;
* **iter_groups** and :func:`merge_runs` share one windowed merge,
  :func:`_merge_groups`.  It holds one block per run.  ``bound`` is
  the smallest tail key among the runs that still have blocks on
  disk.  Every key *strictly less than* ``bound`` is complete in
  memory, so the merge takes those groups from each run, in run
  (= chronological) order, joins equal keys' value lists (emission
  order per key, as ``MemoryStore`` does) and yields the groups
  sorted by key; then it refills each run whose tail key equals
  ``bound``, appending the next block after the groups it still
  holds — a group that continues into that block is joined when it
  is taken.  The bound must be strict: a key equal to a
  run's tail may continue in that run's next block, and taking it
  early would put a later run's values before them.  Each group's
  value list is therefore in global emission order: byte-identical to
  ``MemoryStore``.  Merge memory is one block per run plus the groups
  carried forward (one hot key's values may span many blocks; the
  group is materialised anyway, outside the tracked buffer).

Run files live in a private temp directory (under the ``spill_dir``
setting, ``$REPRO_SPILL_DIR``) and are removed by :meth:`~SpillStore.close`,
which every execution path reaches via ``try/finally`` — a failed job
leaves no orphaned runs behind.

Run format: a sequence of group blocks, key-sorted across the whole
file, each holding at most :data:`BLOCK_RECORDS` values.  A group
block is the groups form of the block codec in
:mod:`repro.framework.records` (:func:`~repro.framework.records.pack_groups`,
:func:`~repro.framework.records.read_groups`), which the dist wire
shares: a ``u32`` group count *g*, *g* ``u32`` value counts, a
one-column block of the *g* keys and a one-column block of their
values, all little-endian.  Each key is written once per block, not
once per value.  A group with more values than a block has room for
continues under the same key at the head of the next block; keys are
otherwise distinct within a run.  Every read is length-checked: a torn
or inconsistent run file raises :class:`~repro.errors.FrameworkError`
naming the file instead of yielding short groups.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from bisect import bisect_left
from typing import Iterator

import numpy as np

from ..errors import FrameworkError
from ..framework.records import (
    KeyValueSet,
    field_lengths,
    pack_groups,
    read_groups,
)
from .base import RECORD_OVERHEAD, IntermediateStore

#: Default budget when spilling is requested without an explicit one.
DEFAULT_BUDGET = 64 * 2**20

#: Values per run-file block: the merge holds one block per run.
BLOCK_RECORDS = 512


class SpillStore(IntermediateStore):
    """Budgeted store: spill sorted runs, merge-stream them back."""

    name = "spill"

    def __init__(self, budget: int | None = None, *,
                 spill_dir: str | None = None, root: str | None = None,
                 prefix: str = "run", own_dir: bool | None = None) -> None:
        """``budget`` is the tracked in-memory byte bound (default
        :data:`DEFAULT_BUDGET`).  ``spill_dir`` places run files in an
        existing directory the caller owns (the dist backend gives
        each job one shared dir); by default the store creates — and on
        :meth:`close` removes — its own temp dir, under ``root`` (the
        ``spill_dir`` setting; default the system temp dir).
        ``prefix`` namespaces this store's run files within a shared
        dir."""
        super().__init__()
        if budget is None:
            budget = DEFAULT_BUDGET
        if budget < 1:
            raise ValueError(f"spill budget must be >= 1 byte, got {budget}")
        self.budget = budget
        # The buffer: key -> values, values in emission order.
        self._groups: dict[bytes, list[bytes]] = {}
        self._buffer_bytes = 0
        self._runs: list[str] = []
        self._prefix = prefix
        self._dir = spill_dir
        self._root = root
        self._own_dir = (spill_dir is None) if own_dir is None else own_dir
        self._closed = False

    # -- writing -------------------------------------------------------

    def emit(self, key: bytes, value: bytes) -> None:
        cost = len(key) + len(value) + RECORD_OVERHEAD
        if self._groups and self._buffer_bytes + cost > self.budget:
            self._spill_run()
        bucket = self._groups.get(key)
        if bucket is None:
            self._groups[key] = [value]
        else:
            bucket.append(value)
        self._buffer_bytes += cost
        st = self.stats
        st.emitted_records += 1
        st.emitted_bytes += cost
        if self._buffer_bytes > st.peak_bytes:
            st.peak_bytes = self._buffer_bytes

    def emit_many(self, pairs) -> None:
        if not isinstance(pairs, KeyValueSet):
            super().emit_many(pairs)
            return
        keys, vals = pairs.keys, pairs.values
        costs = field_lengths(keys).astype(np.int64)
        costs += field_lengths(vals)
        costs += RECORD_OVERHEAD
        self._replay(keys, vals, np.cumsum(costs))

    def emit_columns(self, cols) -> None:
        self._replay(cols.keys.tolist(), cols.values.tolist(), np.cumsum(
            cols.keys.lengths + cols.values.lengths + RECORD_OVERHEAD
        ))

    def _replay(self, keys: list, vals: list, cum: np.ndarray) -> None:
        """Append a batch under the scalar rule, one step per spill.

        ``cum[i]`` is the summed cost of records ``0..i``.  The rule
        is :meth:`emit`'s — spill before appending the record that
        would overflow a non-empty buffer — replayed with
        ``searchsorted``: each step appends the longest prefix that
        still fits, so the buffer contents, spill points, run files
        and all accounting come out byte-identical to emitting the
        pairs one at a time.
        """
        n = len(keys)
        if n == 0:
            return
        groups = self._groups
        get = groups.get
        budget = self.budget
        st = self.stats
        bb = self._buffer_bytes
        base = 0  # cum of the records before i
        i = 0
        while True:
            j = max(i, int(cum.searchsorted(budget - bb + base, "right")))
            if j == i and not groups:
                # An empty buffer always accepts the next record, even
                # one larger than the whole budget.
                j = i + 1
            if j > i:
                for key, value in zip(keys[i:j], vals[i:j]):
                    bucket = get(key)
                    if bucket is None:
                        groups[key] = [value]
                    else:
                        bucket.append(value)
                end = int(cum[j - 1])
                bb += end - base
                base = end
                if bb > st.peak_bytes:
                    st.peak_bytes = bb
                i = j
            if i >= n:
                break
            # The next record would overflow a non-empty buffer: spill.
            self._buffer_bytes = bb
            self._spill_run()
            bb = 0
        self._buffer_bytes = bb
        st.emitted_records += n
        st.emitted_bytes += base

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="repro-spill-", dir=self._root
            )
        return self._dir

    def _sorted_buffer(self) -> tuple[list[bytes], list[list[bytes]]]:
        """The buffer's distinct keys, sorted, and their value lists."""
        keys = sorted(self._groups)
        return keys, list(map(self._groups.__getitem__, keys))

    def _spill_run(self) -> None:
        """Write the buffer's groups out, in key order, as one run."""
        run_dir = self._ensure_dir()
        path = os.path.join(
            run_dir, f"{self._prefix}-{len(self._runs):06d}.run"
        )
        written = 0
        with open(path, "wb") as fh:
            for block in _group_blocks(*self._sorted_buffer()):
                blob = pack_groups(*block)
                fh.write(blob)
                written += len(blob)
        self._runs.append(path)
        st = self.stats
        st.spill_runs += 1
        st.spilled_bytes += written
        self._groups.clear()  # in place: _replay holds the dict
        self._buffer_bytes = 0

    def flush_runs(self) -> list[str]:
        """Force the tail buffer to disk and return every run path.

        Used by pool workers: the coordinator merges the returned runs
        directly (files outlive the worker's store object), so nothing
        but paths crosses the process boundary.  The caller owns the
        files from here on.
        """
        if self._groups:
            self._spill_run()
        self.finalize()
        runs, self._runs = self._runs, []
        return runs

    # -- reading -------------------------------------------------------

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def iter_groups(self) -> Iterator[tuple[bytes, list[bytes]]]:
        if not self._finalized:
            self.finalize()
        sources = [_read_blocks(path) for path in self._runs]
        if self._groups:
            sources.append(_one_block(*self._sorted_buffer()))
        self.stats.merge_fan_in = len(sources)
        try:
            yield from _merge_groups(sources)
        finally:
            self.close()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._groups = {}
        self._buffer_bytes = 0
        runs, self._runs = self._runs, []
        for path in runs:
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._own_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __del__(self):  # last-resort cleanup; close() is the contract
        try:
            self.close()
        except Exception:
            pass


def _group_blocks(keys: list, values: list):
    """Cut key-sorted groups into ``(keys, value lists)`` blocks of at
    most :data:`BLOCK_RECORDS` values; a group that does not fit
    continues under its key at the head of the next block."""
    size = BLOCK_RECORDS
    bkeys, bvals, room = [], [], size
    for key, vals in zip(keys, values):
        lo, n = 0, len(vals)
        while n - lo >= room:
            bkeys.append(key)
            bvals.append(vals[lo:lo + room])
            lo += room
            yield bkeys, bvals
            bkeys, bvals, room = [], [], size
        if lo < n:
            bkeys.append(key)
            bvals.append(vals[lo:] if lo else vals)
            room -= n - lo
    if bkeys:
        yield bkeys, bvals


def _read_blocks(path: str):
    """Stream one run file as ``(keys, value lists, last)`` blocks."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def take(nbytes: int) -> bytes:
            nonlocal off
            data = fh.read(nbytes) if off + nbytes <= size else b""
            if len(data) != nbytes:
                raise FrameworkError(
                    f"spill run {path!r} is truncated: wanted {nbytes} "
                    f"bytes at offset {off}, the file has {size}"
                )
            off += nbytes
            return data

        while off < size:
            try:
                keys, vals = read_groups(take)
                if not keys:
                    raise ValueError("a block holds no groups")
            except ValueError as exc:
                raise FrameworkError(
                    f"spill run {path!r} is corrupt: {exc}") from exc
            yield keys, vals, off == size


def _one_block(keys: list, vals: list):
    """The sorted in-memory tail as a one-block merge source."""
    yield keys, vals, True


class _Run:
    """One merge input: its current block and where the merge is."""

    __slots__ = ("keys", "vals", "pos", "last", "blocks")

    def __init__(self, blocks, block) -> None:
        self.blocks = blocks
        self.keys, self.vals, self.last = block
        self.pos = 0

    def refill(self) -> None:
        """Load the next block after the groups not yet taken."""
        keys, vals, self.last = next(self.blocks)
        if self.pos < len(self.keys):
            # Extend the carried groups in place: a hot key that spans
            # many blocks of one run then costs linear time, not
            # quadratic.  A group that continues into the new block
            # now appears twice in a row; the merge joins the two.
            del self.keys[:self.pos], self.vals[:self.pos]
            self.keys += keys
            self.vals += vals
        else:
            self.keys, self.vals = keys, vals
        self.pos = 0


def _merge_groups(sources: list) -> Iterator[tuple[bytes, list[bytes]]]:
    """The windowed merge of key-sorted group-block sources, in run
    order.

    See the module docstring for the rule; ``sources`` yield
    ``(keys, value lists, last)`` blocks and are closed on every exit.
    The yielded value lists are the blocks' own lists, joined.
    """
    try:
        runs = []
        for src in sources:
            block = next(src, None)
            if block is not None:
                runs.append(_Run(src, block))
        while runs:
            tails = [r.keys[-1] for r in runs if not r.last]
            bound = min(tails) if tails else None
            groups: dict[bytes, list[bytes]] = {}
            get = groups.get
            for r in runs:
                keys, pos = r.keys, r.pos
                end = len(keys) if bound is None else bisect_left(
                    keys, bound, pos)
                if end > pos:
                    for k, vs in zip(keys[pos:end], r.vals[pos:end]):
                        bucket = get(k)
                        if bucket is None:
                            groups[k] = vs
                        else:
                            bucket += vs
                    r.pos = end
            if groups:
                yield from sorted(groups.items())
            live = []
            for r in runs:
                if r.pos == len(r.keys) and r.last:
                    continue
                if not r.last and (r.pos == len(r.keys)
                                   or r.keys[-1] == bound):
                    r.refill()
                live.append(r)
            runs = live
    finally:
        for src in sources:
            src.close()


def merge_runs(run_groups: list[list[str]]
               ) -> Iterator[tuple[bytes, list[bytes]]]:
    """Merge-stream groups out of externally produced run files.

    ``run_groups`` is a list of run-path lists, one per producer
    (shard), each list in chronological order — the coordinator-side
    half of the dist backend's per-shard spill.  Ordering matches
    the non-spilled shuffle: producers merge in list order, so equal
    keys accumulate values shard-by-shard in emission order.  The
    caller owns (and cleans up) the files.
    """
    return _merge_groups(
        [_read_blocks(path) for paths in run_groups for path in paths]
    )
