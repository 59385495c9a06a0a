"""Shared-memory staging-area layout (paper Section III-B, Figure 4).

The 16 KB of per-MP shared memory available to a block is carved into:

* a small **control area** — per-warp flag words plus the collector's
  handshake words (overflow flag, arrival counter, epoch) and the
  output-area cursors;
* a per-thread **working area** — "a separate small working area is
  allocated to each thread, for the storage of temporary variables
  used in Map/Reduce computation" (e.g. Matrix Multiplication's one
  float of output per thread);
* the **input area** — four statically-managed buffers (keys, values,
  key indices, value indices) holding a contiguous slice of the input,
  mapped 1:1 onto contiguous global-memory segments so staging-in is
  perfectly coalesced;
* the **output area** — dynamically managed as a *double-ended stack*:
  size-predictable structured data (directory entries) grows from the
  left end, size-unpredictable key/value bytes grow from the right
  end; overflow happens only when the two ends would cross.

The input:output split is governed by ``io_ratio``, the workload-
dependent parameter the paper discusses (larger input area = more
concurrency; larger output area = fewer overflow flushes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..gpu.config import WARP_SIZE
from .modes import MemoryMode

#: Per-warp flag words the paper budgets for its two wait-signal
#: conditions (overflow raised / handled) plus per-warp seen-state.
#: The collector's handshake needs only the control words below; the
#: reservation stays because shrinking it would move the input/output
#: split and with it every cycle count.
FLAG_BYTES_PER_WARP = 16

#: Control words: output-area left/right cursors, record count,
#: overflow state, arrival counters, epoch, reservation bases.
CONTROL_BYTES = 64

#: Shared bytes per staged record for the two directory buffers
#: (key index entry + value index entry, 8 bytes each).
STAGED_DIR_PER_RECORD = 16

#: Output-area bytes consumed on the *left* per collected record
#: (one key index entry + one value index entry).
OUT_DIR_PER_RECORD = 16

#: Output-area bytes per warp-result header (record count + sizes).
WARP_RESULT_HEADER = 8


@dataclass(frozen=True)
class SmemLayout:
    """Resolved shared-memory map for one kernel configuration."""

    total_bytes: int
    threads_per_block: int
    mode: MemoryMode

    flags_off: int
    working_off: int
    working_bytes_per_thread: int
    input_off: int
    input_bytes: int
    output_off: int
    output_bytes: int

    @property
    def smem_bytes(self) -> int:
        """Total shared memory the launch must reserve."""
        return self.total_bytes

    @property
    def n_warps(self) -> int:
        return self.threads_per_block // WARP_SIZE

    # -- input-area capacity ------------------------------------------------

    def records_fit(self, key_sizes, val_sizes, start: int) -> int:
        """How many consecutive records from ``start`` fit the input area.

        Packing rule: key bytes + value bytes + 16 B of staged
        directory per record must fit in ``input_bytes``.
        """
        used = 0
        n = 0
        total = len(key_sizes)
        while start + n < total:
            need = key_sizes[start + n] + val_sizes[start + n] + STAGED_DIR_PER_RECORD
            if used + need > self.input_bytes:
                break
            used += need
            n += 1
        return n


def plan_layout(
    *,
    smem_budget: int,
    threads_per_block: int,
    mode: MemoryMode,
    io_ratio: float = 0.5,
    working_bytes_per_thread: int = 16,
) -> SmemLayout:
    """Carve ``smem_budget`` bytes for a block of the given shape.

    ``io_ratio`` is the fraction of the staging space given to the
    input area when both areas are present (Section III-B: "the size
    ratio between the input and output areas is a parameter dependent
    on workloads").
    """
    if not 0.05 <= io_ratio <= 0.95:
        raise ConfigError(f"io_ratio {io_ratio} outside [0.05, 0.95]")
    if threads_per_block % WARP_SIZE:
        raise ConfigError("threads_per_block must be a warp multiple")
    n_warps = threads_per_block // WARP_SIZE
    flags = FLAG_BYTES_PER_WARP * n_warps + CONTROL_BYTES
    working = working_bytes_per_thread * threads_per_block
    staging = smem_budget - flags - working
    if staging < 512:
        raise ConfigError(
            f"shared-memory budget {smem_budget} too small for "
            f"{threads_per_block} threads (staging space {staging} B)"
        )
    if mode.stages_input and mode.stages_output:
        input_bytes = int(staging * io_ratio)
        output_bytes = staging - input_bytes
    elif mode.stages_input:
        input_bytes, output_bytes = staging, 0
    elif mode.stages_output:
        input_bytes, output_bytes = 0, staging
    else:
        input_bytes = output_bytes = 0

    flags_off = 0
    working_off = flags
    input_off = working_off + working
    output_off = input_off + input_bytes
    used = output_off + output_bytes
    return SmemLayout(
        total_bytes=used if (input_bytes or output_bytes) else flags + working,
        threads_per_block=threads_per_block,
        mode=mode,
        flags_off=flags_off,
        working_off=working_off,
        working_bytes_per_thread=working_bytes_per_thread,
        input_off=input_off,
        input_bytes=input_bytes,
        output_off=output_off,
        output_bytes=output_bytes,
    )
