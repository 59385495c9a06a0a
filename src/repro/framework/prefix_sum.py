"""Prefix-sum (scan) primitives.

Two scans appear in the reproduced systems:

* **In-warp scan** — used by every result-collection path to find each
  lane's output offset inside a warp result.  Threads of a warp run in
  lockstep, so no synchronisation is needed (Section III-D); cost is
  ``log2(32) = 5`` shared-memory steps.
* **Device scan** — Mars's inter-pass prefix summing "executed across
  all threads with output size values" (Section II-B), implemented as
  the classic scan-then-propagate three-kernel sequence.

Each primitive has a *pure* function (used by host-side planning and
tests) and a *timed* coroutine that charges the simulator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpu.config import WARP_SIZE
from ..gpu.instructions import Compute, SharedRead, SharedWrite
from ..gpu.kernel import WarpCtx

#: Hillis-Steele steps for a 32-wide scan.
WARP_SCAN_STEPS = 5

#: Cached read/compute/write op sequence of a full warp scan, keyed on
#: the issue-cycle cost.  Op descriptors are frozen, so the same
#: instances can be yielded by every scan — identical to what
#: ``stouch``/``compute`` would build, minus the per-call allocation.
_SCAN_OPS: dict[float, tuple] = {}


def _scan_ops(issue_cycles: float) -> tuple:
    ops = _SCAN_OPS.get(issue_cycles)
    if ops is None:
        step = (
            SharedRead(nbytes=4 * WARP_SIZE),
            Compute(cycles=issue_cycles),
            SharedWrite(nbytes=4 * WARP_SIZE),
        )
        ops = step * WARP_SCAN_STEPS
        _SCAN_OPS[issue_cycles] = ops
    return ops


def exclusive_scan(values: Sequence[int]) -> tuple[list[int], int]:
    """Pure exclusive prefix sum; returns ``(prefixes, total)``."""
    out: list[int] = []
    acc = 0
    for v in values:
        out.append(acc)
        acc += v
    return out, acc


def warp_exclusive_scan(ctx: WarpCtx, values: Sequence[int]):
    """Timed in-warp exclusive scan over up to 32 per-lane values.

    Returns ``(prefixes, total)``.  Charges the Hillis-Steele shared
    memory ping-pong: 5 read+add+write rounds, conflict-free (stride-1
    word layout), no ``__syncthreads`` thanks to warp lockstep.
    """
    assert len(values) <= WARP_SIZE
    for op in _scan_ops(ctx.timing.issue_cycles):
        yield op
    return exclusive_scan(values)


def device_scan_cycles(n: int, timing, mp_count: int) -> float:
    """Analytic cost of Mars's device-wide exclusive scan over ``n`` values.

    The classic three-kernel scan (scan blocks, scan block sums,
    add base) reads and writes each 4-byte element ~3 times through
    global memory plus ~2*log2(block) shared steps per element.  The
    cost is dominated by bandwidth; latency is amortised over the
    whole device.  Used by :mod:`repro.mars.scan` (which also runs a
    functional scan for the data itself).
    """
    if n <= 0:
        return 0.0
    bytes_moved = 3 * 2 * 4 * n  # 3 passes x (read + write) x 4B
    txns = max(1, bytes_moved // timing.txn_bytes)
    bandwidth_cycles = txns * timing.txn_service_cycles
    # Per-element shared-memory work spread over all MPs' issue ports.
    alu_cycles = (2 * np.log2(max(2, n)) * n * timing.issue_cycles) / (
        mp_count * WARP_SIZE
    )
    return float(2 * timing.global_latency + bandwidth_cycles + alu_cycles)
