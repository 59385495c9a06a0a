"""Global-memory coalescing model (GT200 rules, paper Section II-A).

On the GTX 280, the accesses of a *half-warp* (16 threads) are
coalesced into a single memory transaction when they fall within one
aligned segment; otherwise the hardware issues one transaction per
distinct segment touched (GT200 is the generation that relaxed the
strict in-order rules of G80 to "one transaction per segment").

Segment size is 32 B for 1-byte accesses, 64 B for 2-byte, and 128 B
for 4-, 8- and 16-byte accesses; we approximate with the configured
``txn_bytes`` (64 B default) for uniformity, which preserves the
contrast the paper relies on: a warp reading 32 consecutive words
costs 2 transactions, while a warp reading 32 scattered records costs
up to 32.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .analysis_cache import AnalysisCache, register

#: Memo table for :func:`scattered_transactions`, keyed by the
#: normalized per-warp address-delta pattern (see
#: :func:`scattered_transactions_cached`).
TXN_CACHE = register(AnalysisCache("coalescing.scattered"))


def segments_for_range(addr: int, nbytes: int, seg: int) -> int:
    """Number of ``seg``-byte aligned segments overlapped by a range."""
    if nbytes <= 0:
        return 0
    first = addr // seg
    last = (addr + nbytes - 1) // seg
    return int(last - first + 1)


def contiguous_transactions(
    addr: int, nbytes: int, seg: int, lanes: int = 32, half_warp: int = 16
) -> int:
    """Transactions for a warp cooperatively copying a contiguous range.

    Neighbouring lanes read neighbouring words (the staging-in pattern
    of Section III-A), so the access is perfectly coalesced and the
    cost is simply the number of segments covered.
    """
    return segments_for_range(addr, nbytes, seg)


def scattered_transactions(
    accesses: Sequence[tuple[int, int]], seg: int, half_warp: int = 16
) -> int:
    """Transactions for per-lane scattered ``(addr, size)`` accesses.

    The accesses are grouped into half-warps in lane order; within
    each half-warp, the transaction count is the number of distinct
    segments touched (each access may itself straddle segments).
    """
    total = 0
    for i in range(0, len(accesses), half_warp):
        segs: set[int] = set()
        for addr, size in accesses[i : i + half_warp]:
            if size <= 0:
                continue
            first = addr // seg
            last = (addr + size - 1) // seg
            segs.update(range(first, last + 1))
        total += len(segs)
    return total


def scattered_transactions_cached(
    accesses: Sequence[tuple[int, int]], seg: int, half_warp: int = 16
) -> int:
    """Memoized :func:`scattered_transactions` (exact, cycle-identical).

    The transaction count is invariant under shifting *every* access by
    a common multiple of ``seg``, so the memo key rebases the pattern
    against its lowest covered segment: ``(seg, half_warp,
    (addr - base, size)...)`` with ``base = min_addr // seg * seg``.
    Each warp of a launch touching the same record shape — merely
    shifted by whole segments — therefore hits one shared entry.
    """
    if not accesses:
        return 0
    base = (min(a for a, _ in accesses) // seg) * seg
    # One packed int per access: sizes are < 2**32 by construction
    # (device buffers are bounds-checked against a <=1 GB allocation),
    # so ``(delta << 32) | size`` is injective and hashes as a single
    # machine word.
    key = (seg, half_warp) + tuple(
        ((a - base) << 32) | s for a, s in accesses
    )
    data = TXN_CACHE.data
    n = data.get(key, -1)
    if n >= 0:
        TXN_CACHE.hits += 1
        return n
    TXN_CACHE.misses += 1
    n = scattered_transactions(accesses, seg, half_warp)
    TXN_CACHE.room()
    data[key] = n
    return n


def bytes_touched(
    *, nbytes: int = 0, addrs: Iterable[tuple[int, int]] | None = None
) -> int:
    """Useful-byte count of an access (for bandwidth-efficiency stats)."""
    if addrs is not None:
        return sum(size for _, size in addrs)
    return nbytes


def strided_lane_accesses(
    base: int, stride: int, size: int, lanes: int
) -> list[tuple[int, int]]:
    """Helper: the per-lane access list for a constant-stride pattern.

    ``stride == size`` with 4-byte elements is the perfectly coalesced
    pattern; large strides (e.g. each lane reading the head of its own
    record) produce one transaction per lane — the contrast that makes
    staged input win for Inverted Index in the paper.
    """
    return [(base + lane * stride, size) for lane in range(lanes)]

