"""Public user-facing API of the MapReduce framework.

A workload is described by a :class:`MapReduceSpec`: a Map function,
optionally a Reduce function (thread-level) and/or a combine+finalize
pair (block-level reduction), plus tuning hints.  User functions are
plain Python operating on :class:`~repro.gpu.accessor.Accessor` views;
the framework records their access traces and replays them through
the simulated memory hierarchy under whichever memory-usage mode the
job selects — the same user code runs under G, GT, SI, SO and SIO,
exactly as in the paper.

Example (Word Count's Map)::

    def wc_map(key, value, emit, const):
        line = key.to_bytes()
        for word in split_words(line):
            emit(word, ONE)

    spec = MapReduceSpec(name="wc", map_record=wc_map, ...)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import FrameworkError
from ..gpu.accessor import Accessor
from .records import KeyValueSet

#: Signature of an emit callback: ``emit(key_bytes, value_bytes)``.
Emit = Callable[[bytes, bytes], None]

#: ``map_record(key, value, emit, const)`` — ``const`` is an Accessor
#: over the workload's constant region (or None).
MapFn = Callable[[Accessor, Accessor, Emit, Optional[Accessor]], None]

#: ``reduce_record(key, values, emit, const)`` — thread-level Reduce
#: over one distinct key set; ``values`` is a sequence of Accessors.
ReduceFn = Callable[[Accessor, Sequence[Accessor], Emit, Optional[Accessor]], None]

#: ``combine(a, b) -> bytes`` — associative pairwise combiner for
#: block-level (tree) reduction.
CombineFn = Callable[[bytes, bytes], bytes]

#: ``finalize(key, acc, count) -> (key_bytes, value_bytes)`` — turn a
#: key set's combined accumulator into the output record.
FinalizeFn = Callable[[bytes, bytes, int], tuple[bytes, bytes]]

#: ``map_batch(cols, const=...) -> ColumnBatch | None`` — vectorized
#: Map over one columnar input batch (see
#: :mod:`repro.framework.columns`).  Must produce the emissions of
#: running ``map_record`` over the batch in record order; returning
#: ``None`` declines the batch (unsupported shape) and the framework
#: falls back to the scalar Map for that batch.
MapBatchFn = Callable[..., object]

#: ``reduce_batch(keys, group_offsets, values, const=...) ->
#: ColumnBatch | None`` — vectorized thread-level Reduce over the
#: whole grouped intermediate: ``keys`` is a Column of the distinct
#: keys in ascending byte order, ``group_offsets`` an int64 array
#: delimiting each group's slice of the ``values`` Column (group-major,
#: emission order within a group).  Must emit exactly what
#: ``reduce_record`` would per group, in group order; ``None``
#: declines and the scalar Reduce runs instead.
ReduceBatchFn = Callable[..., object]


@dataclass
class MapReduceSpec:
    """Everything the framework needs to run one MapReduce workload."""

    name: str
    map_record: MapFn
    reduce_record: ReduceFn | None = None
    combine: CombineFn | None = None
    finalize: FinalizeFn | None = None

    #: Optional vectorized twins of ``map_record``/``reduce_record``
    #: for the columnar execution path (``backend="columnar"``).  Both
    #: are pure accelerations: they must reproduce the scalar
    #: functions' emissions byte for byte (float payloads: same
    #: operation order, so same rounding), and either may return None
    #: to decline a batch it cannot vectorize — the framework
    #: transparently falls back to the scalar API per batch.
    #: ``reduce_batch`` only applies to thread-level (TR/Mars) reduces;
    #: block-level (BR) folds always run the scalar combine chain.
    map_batch: MapBatchFn | None = None
    reduce_batch: ReduceBatchFn | None = None

    #: Bytes of read-only constant data (e.g. KMeans centroids, String
    #: Match's keyword) visible to every task via the ``const`` accessor.
    const_bytes: bytes | None = None

    #: Stage record *values* (resp. *keys*) into shared memory?  Both
    #: default to True; Matrix Multiplication sets ``stage_values``
    #: False because its row/column vectors dwarf the input area
    #: ("only the indices ... can be staged", Section IV-C).
    stage_values: bool = True
    stage_keys: bool = True

    #: Shared-memory working area per thread ("storage of temporary
    #: variables used in Map/Reduce computation", Section III-B).
    working_bytes_per_thread: int = 16

    #: Input:output split of the staging space (Section III-B).
    io_ratio: float = 0.5

    #: ALU cycles charged per record and per traced word access.
    cycles_per_record: float = 24.0
    cycles_per_access: float = 6.0

    #: Output-capacity multipliers (over-provisioning for the
    #: single-pass appendable buffers).
    out_bytes_factor: float = 4.0
    out_records_factor: float = 12.0

    @property
    def has_reduce(self) -> bool:
        return self.reduce_record is not None or self.combine is not None

    def validate(self) -> None:
        if not callable(self.map_record):
            raise FrameworkError("map_record must be callable")
        if self.map_batch is not None and not callable(self.map_batch):
            raise FrameworkError("map_batch must be callable")
        if self.reduce_batch is not None and not callable(self.reduce_batch):
            raise FrameworkError("reduce_batch must be callable")
        if self.combine is not None and self.finalize is None:
            raise FrameworkError("block-level reduction needs a finalize fn")
        if not 0.05 <= self.io_ratio <= 0.95:
            raise FrameworkError("io_ratio must be in [0.05, 0.95]")

    def output_capacity(self, inp: KeyValueSet | None, *, payload: int, count: int
                        ) -> tuple[int, int, int]:
        """Capacity of the appendable output buffers for an input of
        ``payload`` bytes and ``count`` records."""
        cap = int(self.out_bytes_factor * payload) + (1 << 16)
        recs = int(self.out_records_factor * count) + 4096
        return cap, cap, recs

