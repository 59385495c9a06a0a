"""Cross-process worker telemetry: shard profiles and straggler math.

The sharded backends' forked workers each record a lightweight
profile of the shard they executed — wall-clock bounds
(``perf_counter_ns``; forked children share the parent's clock epoch,
so stamps are directly comparable), record and emission counts, the
shard's distinct-key width and any spill activity.  Profiles ship back
with the shard results as plain dicts, become :class:`ShardProfile`
records in the coordinator, merge into the parent
:class:`~repro.obs.tracer.Tracer` as per-worker tracks, and aggregate
into a :class:`WorkerSummary` — the max-vs-median shard time and skew
ratio used for straggler detection (the Xeon Phi MapReduce work leans
on exactly this per-thread phase profiling to find imbalance).

Everything here is plain data: no field may hold user callables or
live handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardProfile:
    """One worker's record of executing one shard of one phase.

    ``shard`` doubles as the stable worker-track id: shards are dealt
    to the pool in index order, so shard *i* of a phase is the same
    logical lane across runs regardless of which OS process served it
    (``pid`` records the latter for curiosity, not identity).
    """

    phase: str            # "map" or "reduce"
    shard: int            # shard index == stable worker-track id
    pid: int              # OS pid of the serving pool process
    start_ns: int         # perf_counter_ns at shard start
    end_ns: int           # perf_counter_ns at shard end
    records_in: int       # records (map) or value count (reduce) in
    records_out: int      # records emitted by the user function
    distinct_keys: int = 0  # peak shuffle-key width seen by the shard
    spill_runs: int = 0     # sorted runs this shard wrote to disk
    spilled_bytes: int = 0  # payload bytes across this shard's runs

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {
            "phase": self.phase, "shard": self.shard, "pid": self.pid,
            "wall_ns": self.wall_ns, "records_in": self.records_in,
            "records_out": self.records_out,
            "distinct_keys": self.distinct_keys,
            "spill_runs": self.spill_runs,
            "spilled_bytes": self.spilled_bytes,
        }


@dataclass(frozen=True)
class PhaseImbalance:
    """Straggler statistics for one sharded phase."""

    phase: str
    shards: int
    max_ns: int
    median_ns: int
    total_ns: int
    slowest_shard: int
    #: max / median shard wall time; 1.0 = perfectly balanced.
    skew: float

    def to_dict(self) -> dict:
        return {
            "phase": self.phase, "shards": self.shards,
            "max_ns": self.max_ns, "median_ns": self.median_ns,
            "total_ns": self.total_ns,
            "slowest_shard": self.slowest_shard,
            "skew": self.skew,
        }


@dataclass
class WorkerSummary:
    """Aggregated shard profiles for one job: per-phase imbalance."""

    phases: list[PhaseImbalance] = field(default_factory=list)

    @property
    def max_skew(self) -> float:
        return max((p.skew for p in self.phases), default=1.0)

    def phase(self, name: str) -> PhaseImbalance | None:
        for p in self.phases:
            if p.phase == name:
                return p
        return None

    def to_dict(self) -> dict:
        return {"phases": [p.to_dict() for p in self.phases],
                "max_skew": self.max_skew}

    def render(self) -> str:
        """Console table: one line per sharded phase."""
        lines = ["worker imbalance (max vs median shard wall time):"]
        for p in self.phases:
            flag = "  <- straggler" if p.skew >= 1.5 and p.shards > 1 else ""
            lines.append(
                f"  {p.phase:<7s} {p.shards:3d} shards  "
                f"max {p.max_ns / 1e6:9.3f} ms (shard {p.slowest_shard})  "
                f"median {p.median_ns / 1e6:9.3f} ms  "
                f"skew {p.skew:5.2f}x{flag}"
            )
        return "\n".join(lines)


def _median_int(values: list[int]) -> int:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) // 2


def summarize_workers(profiles: list[ShardProfile]) -> WorkerSummary | None:
    """Fold shard profiles into per-phase imbalance statistics.

    Returns ``None`` for an empty profile list (in-process fallback
    runs report no shards).  Phases appear in first-profile order
    (map before reduce, the execution order).
    """
    if not profiles:
        return None
    by_phase: dict[str, list[ShardProfile]] = {}
    for p in profiles:
        by_phase.setdefault(p.phase, []).append(p)
    summary = WorkerSummary()
    for phase, group in by_phase.items():
        walls = [p.wall_ns for p in group]
        max_ns = max(walls)
        median_ns = _median_int(walls)
        slowest = max(group, key=lambda p: (p.wall_ns, -p.shard)).shard
        summary.phases.append(PhaseImbalance(
            phase=phase,
            shards=len(group),
            max_ns=max_ns,
            median_ns=median_ns,
            total_ns=sum(walls),
            slowest_shard=slowest,
            skew=(max_ns / median_ns) if median_ns else 1.0,
        ))
    return summary
