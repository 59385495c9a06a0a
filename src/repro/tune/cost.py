"""Analytic cost model: price a candidate configuration from stats.

The model follows the paper's access-cost structure (Section IV):
every Map candidate pays a per-record base, a per-input-byte read
charge whose rate depends on where the bytes come from (global /
texture-cached / staged-to-shared), a per-emission charge whose rate
depends on where output goes (global atomic append vs. shared-memory
staging + block flush), and the staging taxes the evaluation isolates
— the helper-warp prefetch for staged input, the wait-signal sync for
staged output.  Reduce is priced per strategy: TR's serial chain is
the *largest* key group (one thread owns a whole group — the paper's
Figure 5f–5i crossover with cardinality and skew), while BR tree-folds
groups block-by-block and pays per group launched.  Shuffle and the
PCIe transfers use the same models for every mode, so they only move
absolute error, never the choice.

Every rate below is a **calibration constant**: the factory defaults
were fit by least squares over a measured sweep of the eight shipped
workloads (``scripts/calibrate_tuner.py`` reproduces and prints them),
and :mod:`repro.tune.calibrate` refines them at runtime from matching
run-ledger records.  Wall-clock rates price the functional backends
(fast / columnar) plus the spill-budget knob for the
execution-level decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..framework.modes import MemoryMode, ReduceStrategy, \
    effective_reduce_mode
from .profiler import InputStats

#: Directory bytes charged per record by the transfer model
#: (mirrors ``repro.framework.records.DIR_PER_RECORD``).
DIR_PER_RECORD = 16


@dataclass(frozen=True)
class Candidate:
    """One point of the configuration space the tuner prices."""

    mode: MemoryMode = MemoryMode.SIO
    strategy: ReduceStrategy | None = None
    threads_per_block: int = 128
    #: Execution substrate ("sim", "fast", "columnar") — only the
    #: wall objective distinguishes these.
    backend: str = "sim"
    store: str | None = None
    memory_budget: int | None = None


# ----------------------------------------------------------------------
# Calibration constants
# ----------------------------------------------------------------------

#: Map coefficients per mode: (per_record, per_input_byte,
#: per_emission, per_output_byte, per_overflowed_emission,
#: per_compute_cycle).  ``per_overflowed_emission`` only bites
#: staged-output modes: when one block's staged emissions exceed the
#: shared-memory staging area, every emission pays it scaled by how
#: far over capacity the block runs (flush storms — the reason G
#: beats SIO on emission-heavy Map phases).  ``per_compute_cycle``
#: multiplies the profiler's ALU estimate; staged-input modes carry a
#: higher rate because helper warps prefetching input subtract from
#: compute capacity (the KMeans-vs-WordCount split).  Factory-fit —
#: see module docstring.
_FACTORY_MAP: dict[str, tuple] = {
    "G":   (2.3, 0.135, 5.6, 0.000, 0.0, 0.055),
    "GT":  (1.7, 0.118, 5.5, 0.000, 0.0, 0.056),
    "SI":  (0.0, 0.016, 7.3, 0.000, 0.0, 0.114),
    "SO":  (12.2, 0.215, 0.0, 0.051, 0.2, 0.103),
    "SIO": (5.2, 0.119, 2.0, 0.078, 0.1, 0.107),
}

#: Reduce coefficients per strategy, keyed by the *effective* Reduce
#: memory mode (TR cannot stage input: SI runs as G, SIO as SO; BR
#: cannot use GT): (per_group, per_value, per_max_group_value,
#: per_value_byte).  Staged Reduce modes are priced separately
#: because staging large key groups is where SIO loses WC/KM to G —
#: a Map-phase model alone cannot see it.
_FACTORY_TR: dict[str, tuple] = {
    "G":  (0.0, 0.000, 298.456, 0.020),
    "GT": (0.0, 0.000, 315.196, 0.000),
    "SO": (0.0, 0.000, 330.952, 0.000),
}
_FACTORY_BR: dict[str, tuple] = {
    "G":   (160.5, 0.000, 0.518, 0.094),
    "SI":  (555.1, 0.000, 6.384, 0.086),
    "SO":  (597.6, 0.000, 5.145, 0.292),
    "SIO": (619.9, 0.000, 5.964, 0.120),
}


@dataclass(frozen=True)
class CostConstants:
    """Every rate the model uses, in one calibratable bundle."""

    #: mode value -> (per_record, per_in_byte, per_emission,
    #: per_out_byte, per_overflowed_emission, per_compute_cycle)
    map_modes: dict = field(default_factory=lambda: dict(_FACTORY_MAP))
    #: effective reduce-mode value -> (per_group, per_value,
    #: per_max_group_value, per_value_byte), per strategy
    reduce_tr: dict = field(default_factory=lambda: dict(_FACTORY_TR))
    reduce_br: dict = field(default_factory=lambda: dict(_FACTORY_BR))
    #: Shuffle: per intermediate record, linear + n·log2(n) sort term.
    shuffle_per_rec: float = 34.2
    shuffle_per_rec_log: float = 0.0
    #: Block-size sensitivity: staged-output flush amortization (cost
    #: multiplier ∝ 128/tpb on the emission term), global atomic
    #: contention (∝ tpb/128, weak), and the overflow penalty when a
    #: block's staged emissions no longer fit the shared-memory
    #: staging area (bigger blocks stage more per flush — the WC-vs-II
    #: crossover at 256 threads).
    tpb_flush_gain: float = 0.3
    tpb_atomic_pain: float = 0.02
    #: Fraction of ``shared_mem_per_mp`` available to output staging
    #: (the overflow feature's capacity reference).
    stage_capacity_frac: float = 0.5
    #: Device the cycle constants were fit on (kernel work scales with
    #: the MP count relative to this).
    mp_count_ref: int = 4
    #: PCIe model mirror (exact values come from the DeviceConfig).
    #: Wall-clock rates (seconds) for the execution-level decision.
    host_per_record: float = 1.6e-6
    host_per_emission: float = 1.1e-6
    host_per_group: float = 1.3e-6
    host_per_byte: float = 4.0e-9
    columnar_map_discount: float = 0.25
    #: A batch Map over ragged input keys, relative to scalar.  Ragged
    #: WordCount's ``wc_map_batch`` measured 0.19x the scalar Map
    #: (small 0.55 vs 2.85 ms, medium 1.31 vs 6.72 ms; median of 40
    #: jobs, 2-vCPU x86, Python 3.11).  A spec with no batch Map runs
    #: the scalar kernel batch by batch, priced as scalar: WordCount
    #: with its batch Map removed measured 1.00-1.01x.
    columnar_ragged_map_discount: float = 0.2
    columnar_reduce_discount: float = 0.2
    columnar_per_batch: float = 2.5e-4
    spill_per_byte: float = 1.2e-8
    #: Per-(knob) multiplicative corrections learned from the ledger
    #: ({"mode:G": 1.03, "backend:fast": 0.97, ...}); bounded by the
    #: calibrator, 1.0 when no history exists.
    corrections: dict = field(default_factory=dict)

    def corrected(self, key: str) -> float:
        return self.corrections.get(key, 1.0)

    def with_corrections(self, corrections: dict) -> "CostConstants":
        return replace(self, corrections=dict(corrections))


# ----------------------------------------------------------------------
# Cycle model (sim objective)
# ----------------------------------------------------------------------


def stage_overflow(stats: InputStats, tpb: int, config,
                   constants: CostConstants) -> float:
    """How far one block's staged emissions exceed shared capacity.

    0.0 while a block's worth of emissions fits the staging area;
    beyond that, the excess ratio (1.0 = twice over capacity).  This
    is the feature the overflow coefficient multiplies — it grows
    with block size and with emission density, which is exactly the
    WC-at-256-threads flush-storm regime.
    """
    per_emit_bytes = stats.emit_key_bytes + stats.emit_val_bytes \
        + DIR_PER_RECORD
    staged = stats.emissions_per_record * tpb * per_emit_bytes
    capacity = getattr(config, "shared_mem_per_mp", 16384) \
        * constants.stage_capacity_frac
    if capacity <= 0 or staged <= capacity:
        return 0.0
    return staged / capacity - 1.0


def _transfer_cycles(nbytes: float, records: float, config) -> float:
    t = config.timing
    total = nbytes + DIR_PER_RECORD * records
    if total <= 0:
        return 0.0
    return t.pcie_setup_cycles + total / t.pcie_bytes_per_cycle


def estimate_cycles(
    stats: InputStats,
    cand: Candidate,
    config,
    constants: CostConstants | None = None,
) -> float:
    """Predicted end-to-end simulated cycles for ``cand``.

    The per-phase structure mirrors ``PhaseTimings``: io_in + map
    (+ shuffle + reduce + io_out when the job has a Reduce phase).
    """
    c = constants or CostConstants()
    n = float(stats.records)
    in_bytes = n * stats.rec_bytes_avg
    e = stats.est_emissions
    out_bytes = e * (stats.emit_key_bytes + stats.emit_val_bytes)
    mp_scale = c.mp_count_ref / max(1, getattr(config, "mp_count", 4))
    tpb = cand.threads_per_block

    mode = cand.mode
    per_rec, per_in, per_emit, per_out, per_ovf, per_cmp = \
        c.map_modes[mode.value]
    tpb = max(32, tpb)
    overflow_cost = 0.0
    if mode.stages_output:
        flush_adj = 1.0 + c.tpb_flush_gain * (128.0 / tpb - 1.0)
        overflow_cost = per_ovf * e * stage_overflow(stats, tpb, config, c)
    else:
        flush_adj = 1.0 + c.tpb_atomic_pain * (tpb / 128.0 - 1.0)
    map_cost = (
        per_rec * n + per_in * in_bytes
        + (per_emit * e + per_out * out_bytes) * flush_adj
        + overflow_cost
        + per_cmp * n * stats.compute_per_record
    ) * mp_scale * c.corrected(f"mode:{mode.value}")

    io_in = _transfer_cycles(in_bytes, n, config)
    if cand.strategy is None:
        io_out = _transfer_cycles(out_bytes, e, config)
        return io_in + map_cost + io_out

    log_e = math.log2(e) if e > 1 else 0.0
    shuffle = (c.shuffle_per_rec * e + c.shuffle_per_rec_log * e * log_e) \
        * mp_scale

    groups = float(max(1, stats.est_groups)) if e else 0.0
    values = e
    val_bytes = values * stats.emit_val_bytes
    max_group = stats.est_max_group
    red_mode = effective_reduce_mode(mode, cand.strategy).value
    if cand.strategy is ReduceStrategy.TR:
        table = c.reduce_tr
        key = "strategy:TR"
    else:
        table = c.reduce_br
        key = "strategy:BR"
    g_c, v_c, m_c, b_c = table.get(red_mode) or table["G"]
    reduce_cost = (
        g_c * groups + v_c * values + m_c * max_group + b_c * val_bytes
    ) * mp_scale * c.corrected(key)

    # Reduce output: one record per group, key + a value-sized payload.
    red_out_bytes = groups * (stats.emit_key_bytes + stats.emit_val_bytes)
    io_out = _transfer_cycles(red_out_bytes, groups, config)
    return io_in + map_cost + shuffle + reduce_cost + io_out


# ----------------------------------------------------------------------
# Wall model (execution objective)
# ----------------------------------------------------------------------


def estimate_wall(
    stats: InputStats,
    cand: Candidate,
    spec,
    *,
    constants: CostConstants | None = None,
) -> float:
    """Predicted wall seconds on a functional backend.

    Prices the fast scalar loop, the columnar discounts (only when the
    workload actually ships batch kernels: the Map's by whether the
    input keys are fixed-width or ragged, the Reduce's when the
    intermediate is fixed-width), and the spill store's per-byte
    write+merge charge when the candidate budgets the shuffle.
    """
    c = constants or CostConstants()
    n = float(stats.records)
    e = stats.est_emissions
    groups = float(max(1, stats.est_groups)) if e else 0.0
    in_bytes = n * stats.rec_bytes_avg
    inter_bytes = e * (stats.emit_key_bytes + stats.emit_val_bytes)

    map_s = c.host_per_record * n + c.host_per_emission * e \
        + c.host_per_byte * in_bytes
    shuffle_s = c.host_per_emission * e + c.host_per_byte * inter_bytes
    reduce_s = (c.host_per_group * groups + c.host_per_emission * e) \
        if cand.strategy is not None else 0.0

    if cand.backend == "columnar":
        batches = max(1.0, math.ceil(n / 8192.0))
        if spec is not None and getattr(spec, "map_batch", None) is not None:
            map_s *= (c.columnar_ragged_map_discount if stats.ragged_keys
                      else c.columnar_map_discount)
        if spec is not None and getattr(spec, "reduce_batch", None) is not None \
                and cand.strategy is ReduceStrategy.TR \
                and stats.emit_fixed_width:
            reduce_s *= c.columnar_reduce_discount
        total = map_s + shuffle_s + reduce_s + c.columnar_per_batch * batches
        total *= c.corrected("backend:columnar")
    else:
        total = (map_s + shuffle_s + reduce_s) * c.corrected("backend:fast")

    if cand.store == "spill":
        budget = float(cand.memory_budget or 0)
        over = max(0.0, stats.est_intermediate_bytes - budget)
        total += c.spill_per_byte * over
    return total

