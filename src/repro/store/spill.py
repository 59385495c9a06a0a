"""The spillable out-of-core store: sorted runs + k-way heap merge.

Greiner & Jacob's parallel-external-memory analysis of MapReduce
models the shuffle as exactly this: when the intermediate working set
exceeds the memory budget *M*, write key-sorted runs of ~*M* bytes and
merge them back in one streaming pass.  :class:`SpillStore` is the
host-side implementation:

* **emit** appends to an in-memory buffer whose approximate byte size
  (:func:`~repro.store.base.record_cost`) is tracked; when adding a
  record would push the buffer past the budget, the buffer is sorted
  by key (stable, preserving emission order of equal keys) and written
  to a temp run file first — so the tracked buffer never exceeds
  ``max(budget, one record)``;
* **iter_groups** merges the disk runs plus the in-memory tail with
  ``heapq.merge``.  Every sequence is key-sorted and the merge items
  carry ``(key, run_index, value)``, with runs numbered in creation
  (= chronological) order — equal keys therefore pop in run order, and
  within a run in emission order, so each group's value list is in
  global emission order: byte-identical to
  :class:`~repro.store.memory.MemoryStore`;
* a group is materialised one at a time — one hot key whose values
  exceed the budget still streams through the merge correctly (the
  group list lives outside the tracked buffer, which stays bounded).

Run files live in a private temp directory (under the ``spill_dir``
setting, ``$REPRO_SPILL_DIR``) and are removed by :meth:`~SpillStore.close`,
which every execution path reaches via ``try/finally`` — a failed job
leaves no orphaned runs behind.

Run format: repeated ``u32 klen, u32 vlen, key, value`` records,
little-endian, key-sorted within the file.
"""

from __future__ import annotations

import heapq
import os
import shutil
import struct
import tempfile
from typing import Iterator

from .base import RECORD_OVERHEAD, IntermediateStore, record_cost

#: Default budget when spilling is requested without an explicit one.
DEFAULT_BUDGET = 64 * 2**20

_HEADER = struct.Struct("<II")


class SpillStore(IntermediateStore):
    """Budgeted store: spill sorted runs, merge-stream them back."""

    name = "spill"

    def __init__(self, budget: int | None = None, *,
                 spill_dir: str | None = None, root: str | None = None,
                 prefix: str = "run", own_dir: bool | None = None) -> None:
        """``budget`` is the tracked in-memory byte bound (default
        :data:`DEFAULT_BUDGET`).  ``spill_dir`` places run files in an
        existing directory the caller owns (the parallel backend gives
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
        self._buffer: list[tuple[bytes, bytes]] = []
        self._buffer_bytes = 0
        self._runs: list[str] = []
        self._prefix = prefix
        self._dir = spill_dir
        self._root = root
        self._own_dir = (spill_dir is None) if own_dir is None else own_dir
        self._closed = False

    # -- writing -------------------------------------------------------

    def emit(self, key: bytes, value: bytes) -> None:
        cost = record_cost(key, value)
        if self._buffer and self._buffer_bytes + cost > self.budget:
            self._spill_run()
        self._buffer.append((key, value))
        self._buffer_bytes += cost
        st = self.stats
        st.emitted_records += 1
        st.emitted_bytes += cost
        if self._buffer_bytes > st.peak_bytes:
            st.peak_bytes = self._buffer_bytes

    def emit_columns(self, cols) -> None:
        """Columnar emit with scalar-identical budget semantics.

        The per-record rule ("spill before appending the record that
        would overflow a non-empty buffer") is replayed over the whole
        batch with one cumulative-cost array: each ``searchsorted``
        finds the longest prefix that still fits, so the loop runs
        once per *spill*, not once per record.  Buffer contents, spill
        points, run files and all accounting come out byte-identical
        to emitting the pairs one at a time.
        """
        import numpy as np

        n = len(cols)
        if n == 0:
            return
        costs = cols.keys.lengths + cols.values.lengths + RECORD_OVERHEAD
        cum = np.cumsum(costs)
        kl = cols.keys.tolist()
        vl = cols.values.tolist()
        buf = self._buffer
        bb = self._buffer_bytes
        budget = self.budget
        st = self.stats
        i = 0
        while i < n:
            prev = int(cum[i - 1]) if i else 0
            if not buf:
                # An empty buffer always accepts the next record, even
                # one larger than the whole budget (the scalar rule).
                buf.append((kl[i], vl[i]))
                bb += int(costs[i])
                if bb > st.peak_bytes:
                    st.peak_bytes = bb
                i += 1
                if i >= n:
                    break
                prev = int(cum[i - 1])
            # Longest prefix i..j-1 with bb + (cum[j-1] - prev) <= budget.
            j = int(np.searchsorted(cum, budget - bb + prev, side="right"))
            if j > i:
                buf.extend(zip(kl[i:j], vl[i:j]))
                bb += int(cum[j - 1]) - prev
                if bb > st.peak_bytes:
                    st.peak_bytes = bb
                i = j
            if i < n:
                # Next record would overflow a non-empty buffer: spill.
                self._buffer_bytes = bb
                self._spill_run()
                buf = self._buffer
                bb = 0
        self._buffer_bytes = bb
        st.emitted_records += n
        st.emitted_bytes += int(cum[-1])

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="repro-spill-", dir=self._root
            )
        return self._dir

    def _spill_run(self) -> None:
        """Sort the buffer and write it out as one run file."""
        run_dir = self._ensure_dir()
        path = os.path.join(
            run_dir, f"{self._prefix}-{len(self._runs):06d}.run"
        )
        pairs = sorted(self._buffer, key=_pair_key)  # stable: emission
        written = 0
        with open(path, "wb") as fh:
            write, pack = fh.write, _HEADER.pack
            for k, v in pairs:
                write(pack(len(k), len(v)))
                write(k)
                write(v)
                written += 8 + len(k) + len(v)
        self._runs.append(path)
        self.stats.spill_runs += 1
        self.stats.spilled_bytes += written
        self._buffer = []
        self._buffer_bytes = 0

    def flush_runs(self) -> list[str]:
        """Force the tail buffer to disk and return every run path.

        Used by pool workers: the coordinator merges the returned runs
        directly (files outlive the worker's store object), so nothing
        but paths crosses the process boundary.  The caller owns the
        files from here on.
        """
        if self._buffer:
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
        sequences: list = [
            _read_run(path, idx) for idx, path in enumerate(self._runs)
        ]
        if self._buffer:
            tail = sorted(self._buffer, key=_pair_key)
            idx = len(sequences)
            sequences.append((k, idx, v) for k, v in tail)
        self.stats.merge_fan_in = len(sequences)
        try:
            key = None
            values: list[bytes] = []
            for k, _idx, v in heapq.merge(*sequences):
                if k != key:
                    if key is not None:
                        yield key, values
                    key = k
                    values = [v]
                else:
                    values.append(v)
            if key is not None:
                yield key, values
        finally:
            self.close()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffer = []
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


def _pair_key(pair: tuple[bytes, bytes]) -> bytes:
    return pair[0]


def _read_run(path: str, idx: int) -> Iterator[tuple[bytes, int, bytes]]:
    """Stream one run file as ``(key, run_index, value)`` merge items."""
    with open(path, "rb") as fh:
        read = fh.read
        unpack = _HEADER.unpack
        while True:
            header = read(8)
            if not header:
                return
            klen, vlen = unpack(header)
            yield read(klen), idx, read(vlen)


def merge_runs(run_groups: list[list[str]]
               ) -> Iterator[tuple[bytes, list[bytes]]]:
    """Merge-stream groups out of externally produced run files.

    ``run_groups`` is a list of run-path lists, one per producer
    (shard), each list in chronological order — the coordinator-side
    half of the parallel backend's per-shard spill.  Ordering matches
    the non-spilled shuffle: producers merge in list order, so equal
    keys accumulate values shard-by-shard in emission order.  The
    caller owns (and cleans up) the files.
    """
    sequences = []
    for paths in run_groups:
        for path in paths:
            sequences.append(_read_run(path, len(sequences)))
    key = None
    values: list[bytes] = []
    for k, _idx, v in heapq.merge(*sequences):
        if k != key:
            if key is not None:
                yield key, values
            key = k
            values = [v]
        else:
            values.append(v)
    if key is not None:
        yield key, values
