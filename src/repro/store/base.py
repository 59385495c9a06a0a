"""The :class:`IntermediateStore` protocol.

Where intermediate key/value data lives between Map and Reduce is a
*policy*, not a fixed part of the execution path — the paper's whole
contribution is exactly this decision at the device tier (shared
memory vs global memory, modes G/GT/SI/SO/SIO), and Greiner & Jacob's
parallel-external-memory analysis gives the cost framework for the
host-side analogue: when the working set exceeds a memory budget,
write sorted runs and merge-stream them back.

A store receives the Map phase's emissions one ``(key, value)`` pair
at a time (:meth:`~IntermediateStore.emit`), is sealed with
:meth:`~IntermediateStore.finalize`, and then yields the grouped,
key-sorted intermediate exactly once via
:meth:`~IntermediateStore.iter_groups`.  Two implementations ship:

* :class:`~repro.store.memory.MemoryStore` — the historical unbounded
  in-process dict group-by.  Output byte-identical to the fast
  backend's original dict shuffle.
* :class:`~repro.store.spill.SpillStore` — tracks an approximate byte
  budget, spills sorted runs to temp files when the budget would be
  exceeded, and merge-streams groups back through a windowed merge
  that holds one block per run, so peak tracked memory stays bounded.

Both yield groups sorted by key bytes with values in emission order,
so downstream Reduce output is identical regardless of policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator

#: Approximate per-record bookkeeping cost charged by the budget
#: accounting, matching the framework's directory footprint per record
#: (two ``(offset, length)`` u32 entries — see
#: :data:`repro.framework.records.DIR_PER_RECORD`).
RECORD_OVERHEAD = 16


def record_cost(key: bytes, value: bytes) -> int:
    """Approximate bytes one record occupies in a store buffer."""
    return len(key) + len(value) + RECORD_OVERHEAD


@dataclass
class StoreStats:
    """Accounting one store accumulates over its lifetime.

    ``peak_bytes`` is the store's *own tracked* buffer high-water mark
    (the quantity the spill budget bounds), not a process RSS claim.
    """

    #: Records emitted into the store.
    emitted_records: int = 0
    #: Approximate bytes emitted (sum of :func:`record_cost`).
    emitted_bytes: int = 0
    #: High-water mark of the in-memory buffer, in tracked bytes.
    peak_bytes: int = 0
    #: Sorted runs written to disk.
    spill_runs: int = 0
    #: Bytes written across all spilled runs (payload plus framing).
    spilled_bytes: int = 0
    #: Sequences fed to the merge (disk runs + in-memory tail).
    merge_fan_in: int = 0

    def as_extra(self) -> dict[str, int]:
        """Spill accounting as ``KernelStats.extra`` counters."""
        return {
            "spill_runs": self.spill_runs,
            "spilled_bytes": self.spilled_bytes,
            "spill_merge_fan_in": self.merge_fan_in,
            "store_peak_bytes": self.peak_bytes,
        }


class IntermediateStore(abc.ABC):
    """One Map->Reduce hop's intermediate key/value data."""

    #: Registry name ("memory", "spill").
    name: str = "?"

    def __init__(self) -> None:
        self.stats = StoreStats()
        self._finalized = False

    # -- writing -------------------------------------------------------

    @abc.abstractmethod
    def emit(self, key: bytes, value: bytes) -> None:
        """Add one record.  Both arguments must already be ``bytes``."""

    def emit_many(self, pairs) -> None:
        emit = self.emit
        for k, v in pairs:
            emit(k, v)

    def emit_columns(self, cols) -> None:
        """Add a batch in columnar form (a
        :class:`~repro.framework.columns.ColumnBatch`).  The default
        unrolls to scalar emits; stores may override with a vectorized
        path, but accounting and grouped output must stay identical to
        emitting the same records one at a time."""
        self.emit_many(cols.iter_pairs())

    # -- sealing and reading -------------------------------------------

    def finalize(self) -> None:
        """Seal the store: no further emits; groups may now be read."""
        self._finalized = True

    @abc.abstractmethod
    def iter_groups(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Yield ``(key, [value, ...])`` groups sorted by key bytes,
        values in emission order.  Single consumption: a spilling store
        streams runs off disk and cannot rewind."""

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release buffers and any temp files.  Idempotent; safe to
        call mid-write (error cleanup must leave no run files behind)."""

    def __len__(self) -> int:
        return self.stats.emitted_records

    def __enter__(self) -> "IntermediateStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
