"""Instrumented byte views for user Map/Reduce functions.

User-supplied Map/Reduce functions (plain Python, no coroutine
plumbing) receive their key/value records wrapped in :class:`Accessor`
objects.  Every read is recorded as a sequence of touched 4-byte words
— the *access trace*.  The framework replays each warp's lane traces
in lockstep through the timing engine, with addresses resolved to
global memory, shared memory, or the texture path depending on the
active memory-usage mode (G / SI / GT ...).  This is how the same user
function gets faithfully costed under every mode, mirroring how the
paper runs identical Map/Reduce code over different memory plumbing
(with the noted exception that GT requires texture-fetch intrinsics,
which here is just a replay-target change).
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_WORD = 4


class AccessTrace:
    """Ordered sequence of 4-byte-word offsets touched within a region.

    Consecutive duplicate words are collapsed (a sequential byte scan
    of one word costs one load, as compiled code would keep it in a
    register).
    """

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: list[int] = []

    def touch(self, start: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        first = start // _WORD
        last = (start + nbytes - 1) // _WORD
        words = self.words
        # Words within one access ascend, so only the seam with the
        # previous access can duplicate; the rest extends at C speed.
        if not words or words[-1] != first:
            words.append(first)
        if first != last:
            words.extend(range(first + 1, last + 1))

    def __len__(self) -> int:
        return len(self.words)

    def clear(self) -> None:
        self.words.clear()


class _NullTrace(AccessTrace):
    """An access trace that records nothing (shared by all accessors)."""

    __slots__ = ()

    def touch(self, start: int, nbytes: int) -> None:
        return


#: One shared no-op trace: accessors built on it never allocate lists.
NULL_TRACE = _NullTrace()


def host_accessor(data: bytes) -> "Accessor":
    """An untraced view, for executors that run user functions on the
    host and never replay the access trace."""
    return Accessor(data, NULL_TRACE)


class Accessor:
    """Read-only, access-traced view of one record's bytes.

    Supports the natural Python protocols (`len`, indexing, slicing,
    iteration, equality against bytes) plus typed scalar/array reads,
    so workload code stays idiomatic.
    """

    __slots__ = ("_data", "trace")

    def __init__(self, data: bytes, trace: AccessTrace | None = None):
        self._data = data
        self.trace = trace if trace is not None else AccessTrace()

    # -- protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(len(self._data))
            span = max(0, stop - start)
            self.trace.touch(start, span)
            return self._data[idx]
        if idx < 0:
            idx += len(self._data)
        self.trace.touch(idx, 1)
        return self._data[idx]

    def __iter__(self):
        for i in range(len(self._data)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Accessor):
            return self._data == other._data
        if isinstance(other, (bytes, bytearray)):
            return self._data == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"Accessor({self._data!r})"

    # -- whole-record & typed reads -------------------------------------

    def to_bytes(self) -> bytes:
        """Read the whole record (touches every word)."""
        self.trace.touch(0, len(self._data))
        return self._data

    def peek_bytes(self) -> bytes:
        """Untraced access — for oracles/debugging only."""
        return self._data

    def u32(self, off: int = 0) -> int:
        self.trace.touch(off, 4)
        return struct.unpack_from("<I", self._data, off)[0]

    def i32(self, off: int = 0) -> int:
        self.trace.touch(off, 4)
        return struct.unpack_from("<i", self._data, off)[0]

    def f32(self, off: int = 0) -> float:
        self.trace.touch(off, 4)
        return struct.unpack_from("<f", self._data, off)[0]

    def f32_array(self, off: int = 0, count: int | None = None) -> np.ndarray:
        if count is None:
            count = (len(self._data) - off) // 4
        self.trace.touch(off, 4 * count)
        return np.frombuffer(self._data, dtype="<f4", count=count, offset=off)

    def u32_array(self, off: int = 0, count: int | None = None) -> np.ndarray:
        if count is None:
            count = (len(self._data) - off) // 4
        self.trace.touch(off, 4 * count)
        return np.frombuffer(self._data, dtype="<u4", count=count, offset=off)

    # -- scanning helpers (traced) ---------------------------------------

    def find(self, needle: bytes, start: int = 0) -> int:
        """Traced ``bytes.find``: charges the scanned prefix."""
        pos = self._data.find(needle, start)
        end = len(self._data) if pos < 0 else min(len(self._data), pos + len(needle))
        self.trace.touch(start, end - start)
        return pos


def lockstep_accesses(
    traces: Sequence[AccessTrace],
    bases: Sequence[int],
    *,
    max_steps: int | None = None,
) -> list[list[tuple[int, int]]]:
    """Zip per-lane traces into lockstep access steps.

    Lane *i*'s *k*-th touched word is accessed simultaneously with
    every other lane's *k*-th word (SIMT lockstep).  Returns, per step,
    the list of ``(absolute_addr, 4)`` accesses of the still-active
    lanes — ready to feed to the coalescing model, the texture cache,
    or the shared-memory bank model.

    ``bases[i]`` is the absolute address of lane *i*'s record start.
    """
    n_steps = max((len(t) for t in traces), default=0)
    if max_steps is not None:
        n_steps = min(n_steps, max_steps)
    steps: list[list[tuple[int, int]]] = []
    for k in range(n_steps):
        acc = [
            (bases[i] + t.words[k] * _WORD, _WORD)
            for i, t in enumerate(traces)
            if k < len(t.words)
        ]
        steps.append(acc)
    return steps
