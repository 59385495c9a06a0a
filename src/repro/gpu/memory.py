"""Functional memory state: global memory and per-block shared memory.

Both classes store *real bytes*; every staging copy in the framework
moves actual data, so final MapReduce outputs can be compared
bit-for-bit against the CPU reference oracle.  Timing is handled
separately by the engine from the instruction descriptors.

Global memory uses a simple bump allocator (CUDA of the paper's era
had no device-side ``malloc``; buffers were allocated up front by the
host, which is exactly how the framework uses this class).
"""

from __future__ import annotations

import struct
import sys

import numpy as np

from ..errors import AllocationError, OutOfBoundsError

_U32 = struct.Struct("<I")

#: Alignment of every allocation, matching the 128-byte segment size
#: relevant to coalescing.
ALLOC_ALIGN = 128


class GlobalMemory:
    """Byte-addressable device global memory with a bump allocator."""

    def __init__(self, capacity: int = 1 << 30, reserve: int = 1 << 16):
        self.capacity = int(capacity)
        self._buf = bytearray(min(reserve, self.capacity))
        self._brk = 0  # bump pointer
        self._allocs: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int, label: str | None = None) -> int:
        """Reserve ``nbytes`` (128-byte aligned) and return the address."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        addr = (self._brk + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        end = addr + nbytes
        if end > self.capacity:
            raise AllocationError("global", nbytes, self.capacity - self._brk)
        if end > len(self._buf):
            # Grow the backing store geometrically up to capacity.
            new_len = min(self.capacity, max(end, 2 * len(self._buf)))
            self._buf.extend(b"\x00" * (new_len - len(self._buf)))
        self._brk = end
        if label is not None:
            self._allocs[label] = (addr, nbytes)
        return addr

    def region(self, label: str) -> tuple[int, int]:
        """Return ``(address, size)`` of a labelled allocation."""
        return self._allocs[label]

    @property
    def bytes_allocated(self) -> int:
        return self._brk

    def reset(self) -> None:
        """Release all allocations (contents are discarded)."""
        self._buf = bytearray(1 << 16)
        self._brk = 0
        self._allocs.clear()

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self._brk:
            raise OutOfBoundsError(
                f"global access [{addr}, {addr + nbytes}) outside "
                f"allocated [0, {self._brk})"
            )

    # The hot accessors below test bounds inline and only call
    # :meth:`_check` on failure (for its message) — a per-access
    # method call the simulator's hot path can't afford.

    def read(self, addr: int, nbytes: int) -> bytes:
        if addr < 0 or nbytes < 0 or addr + nbytes > self._brk:
            self._check(addr, nbytes)
        return bytes(self._buf[addr : addr + nbytes])

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        nbytes = len(data)
        if addr < 0 or addr + nbytes > self._brk:
            self._check(addr, nbytes)
        self._buf[addr : addr + nbytes] = data

    def view(self, addr: int, nbytes: int) -> memoryview:
        """Zero-copy view; use for large result extraction."""
        self._check(addr, nbytes)
        return memoryview(self._buf)[addr : addr + nbytes]

    # ------------------------------------------------------------------
    # Typed helpers (little-endian, 4-byte scalars)
    # ------------------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        if addr < 0 or addr + 4 > self._brk:
            self._check(addr, 4)
        return _U32.unpack_from(self._buf, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self._brk:
            self._check(addr, 4)
        _U32.pack_into(self._buf, addr, value & 0xFFFFFFFF)

    def read_u32_array(self, addr: int, count: int) -> np.ndarray:
        self._check(addr, 4 * count)
        return np.frombuffer(self._buf, dtype="<u4", count=count, offset=addr).copy()

    def write_u32_array(self, addr: int, values: np.ndarray) -> None:
        arr = np.ascontiguousarray(values, dtype="<u4")
        self._check(addr, arr.nbytes)
        self._buf[addr : addr + arr.nbytes] = arr.tobytes()

    # Functional halves of atomics; timing is applied by the engine.

    def atomic_add_u32(self, addr: int, delta: int) -> int:
        old = self.read_u32(addr)
        self.write_u32(addr, old + delta)
        return old


class SharedMemory:
    """Per-block software-managed scratchpad (16 KB on GTX 280).

    Offsets are block-local.  The framework's layout manager
    (:mod:`repro.framework.layout`) carves this into the input area,
    output area, working areas and flag words.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("shared memory size must be positive")
        self.size = int(size)
        self._buf = bytearray(self.size)
        self._u32view = None
        #: Optional access observer (the sanitizer's race detector);
        #: when set, every functional read/write/atomic is reported.
        self.observer = None

    def _check(self, off: int, nbytes: int) -> None:
        if off < 0 or nbytes < 0 or off + nbytes > self.size:
            raise OutOfBoundsError(
                f"shared access [{off}, {off + nbytes}) outside [0, {self.size})"
            )

    # Hot accessors test bounds inline; :meth:`_check` is only called
    # on failure, for its error message (see GlobalMemory).

    def read(self, off: int, nbytes: int) -> bytes:
        if off < 0 or nbytes < 0 or off + nbytes > self.size:
            self._check(off, nbytes)
        if self.observer is not None:
            self.observer.on_read(off, nbytes)
        return bytes(self._buf[off : off + nbytes])

    def write(self, off: int, data: bytes | bytearray | memoryview) -> None:
        nbytes = len(data)
        if off < 0 or off + nbytes > self.size:
            self._check(off, nbytes)
        self._buf[off : off + nbytes] = data
        if self.observer is not None:
            self.observer.on_write(off, nbytes)

    def read_u32(self, off: int) -> int:
        if off < 0 or off + 4 > self.size:
            self._check(off, 4)
        if self.observer is not None:
            self.observer.on_read(off, 4)
        return _U32.unpack_from(self._buf, off)[0]

    def flag_checker(self, off: int, value: int, *, negate: bool = False):
        """Build the cheapest closure testing one aligned word.

        Poll probes evaluate their condition once per simulated probe,
        which makes the closure itself hot.  Without an observer the
        word can be read straight out of a cached ``memoryview`` (no
        bounds re-check, no struct unpack); with one attached, probes
        must remain visible to the race checker, so the closure goes
        through :meth:`read_u32`.  Timing is unaffected either way.
        """
        if (
            self.observer is None
            and off % 4 == 0
            and self.size % 4 == 0
            and sys.byteorder == "little"
        ):
            mv = self._u32view
            if mv is None:
                mv = self._u32view = memoryview(self._buf).cast("I")
            idx = off >> 2
            if not 0 <= idx < len(mv):
                self._check(off, 4)
            if negate:
                return lambda: mv[idx] != value
            return lambda: mv[idx] == value
        read = self.read_u32
        if negate:
            return lambda: read(off) != value
        return lambda: read(off) == value

    def peek_u32(self, off: int) -> int:
        """Read a word *without* notifying the observer (checker
        introspection must not count as a kernel access)."""
        self._check(off, 4)
        return _U32.unpack_from(self._buf, off)[0]

    def write_u32(self, off: int, value: int) -> None:
        if off < 0 or off + 4 > self.size:
            self._check(off, 4)
        _U32.pack_into(self._buf, off, value & 0xFFFFFFFF)
        if self.observer is not None:
            self.observer.on_write(off, 4)

    def atomic_add_u32(self, off: int, delta: int) -> int:
        if off < 0 or off + 4 > self.size:
            self._check(off, 4)
        old = _U32.unpack_from(self._buf, off)[0]
        _U32.pack_into(self._buf, off, (old + delta) & 0xFFFFFFFF)
        if self.observer is not None:
            self.observer.on_atomic(off)
        return old
