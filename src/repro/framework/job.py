"""End-to-end MapReduce job orchestration (the paper's workflow).

``run_job`` executes Input-upload -> Map -> Shuffle -> Reduce ->
Output-download under a chosen memory-usage mode and reduce strategy,
returning both the *functional* output (checkable against the CPU
oracle) and the per-phase timing breakdown that Figure 6 stacks.

Since the backend refactor this module is a thin front-end: it lowers
its arguments to a :class:`~repro.backend.plan.JobPlan` and hands it
to the execution core (:mod:`repro.backend.core`), which sequences
the phases against a pluggable backend — the cycle-accurate simulator
(``backend="sim"``, the default) or the fast functional executor
(``backend="fast"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import resolve
from ..errors import FrameworkError
from ..gpu.config import DeviceConfig
from ..gpu.kernel import Device
from ..gpu.stats import KernelStats
from ..obs.tracer import Tracer
from .api import MapReduceSpec
from .modes import MemoryMode, ReduceStrategy, resolve_strategy_name
from .records import KeyValueSet


@dataclass
class PhaseTimings:
    """Cycle counts per phase (Figure 6's stacked segments)."""

    io_in: float = 0.0
    map: float = 0.0
    shuffle: float = 0.0
    reduce: float = 0.0
    io_out: float = 0.0

    @property
    def total(self) -> float:
        return self.io_in + self.map + self.shuffle + self.reduce + self.io_out

    @property
    def io(self) -> float:
        return self.io_in + self.io_out

    def as_dict(self) -> dict[str, float]:
        return {
            "io_in": self.io_in,
            "map": self.map,
            "shuffle": self.shuffle,
            "reduce": self.reduce,
            "io_out": self.io_out,
            "total": self.total,
        }


@dataclass
class JobResult:
    """Everything produced by one job run."""

    spec_name: str
    mode: MemoryMode | str
    strategy: ReduceStrategy | None
    output: KeyValueSet
    intermediate_count: int
    timings: PhaseTimings
    map_stats: KernelStats = field(default_factory=KernelStats)
    reduce_stats: KernelStats = field(default_factory=KernelStats)
    #: The sanitizer's :class:`~repro.check.CheckReport` when the job
    #: ran with checking enabled (sim backend only), else None.
    check_report: object | None = None
    #: Per-shard :class:`~repro.obs.telemetry.ShardProfile` list when
    #: the job ran on a backend with cross-process workers (the
    #: parallel backend's pool path), else None.
    worker_profiles: list | None = None
    #: The :class:`~repro.obs.telemetry.WorkerSummary` straggler /
    #: imbalance summary derived from ``worker_profiles``, else None.
    straggler: object | None = None

    @property
    def total_cycles(self) -> float:
        return self.timings.total


def run_job(
    spec: MapReduceSpec,
    inp: KeyValueSet,
    *,
    mode: MemoryMode | str | None = None,
    reduce_mode: MemoryMode | str | None = None,
    strategy: ReduceStrategy | str | None = None,
    config: DeviceConfig | None = None,
    device: Device | None = None,
    threads_per_block: int | None = None,
    yield_sync: bool = True,
    io_ratio: float | None = None,
    shuffle_method: str = "sort",
    tracer: Tracer | None = None,
    backend=None,
    check=None,
    store: str | None = None,
    memory_budget: int | None = None,
    tune: bool | None = None,
) -> JobResult:
    """Run a complete MapReduce job.

    ``strategy=None`` runs a Map-only job (MM, SM and II have no
    Reduce phase; their Map output is the final output, per Table II).
    ``reduce_mode`` lets the Reduce phase use a different memory mode
    from Map — the adaptive per-phase selection the paper names as
    future work in Section IV-F ("a better approach is to adopt
    different memory modes in different phases adaptively"); the
    evaluation's own finding is SIO for Map + G for Reduce.
    ``shuffle_method`` selects the grouping cost model: ``"sort"``
    (the paper's and Mars's shared bitonic sort), ``"hash"`` (the
    MapCG-style extension) or ``"bitonic"`` (the event-driven sorter).
    ``tracer`` attaches a :class:`repro.obs.Tracer`: every phase and
    kernel launch becomes a span on the job clock, with per-warp
    device events for the tracer's traced blocks.
    ``backend`` selects the execution substrate: ``"sim"`` (default,
    cycle-accurate), ``"fast"`` (functional, no kernel timings), an
    :class:`~repro.backend.base.ExecutionBackend` instance, or
    ``None`` for the ``backend`` setting (``$REPRO_BACKEND``; every
    ``None`` here defers to :mod:`repro.config` the same way).
    ``check`` enables the sanitizer (:mod:`repro.check`): ``True``,
    ``"strict"``, ``"report"`` or a ``CheckConfig``; ``None`` takes
    ``$REPRO_CHECK``.  Empty inputs are legal and produce an empty
    output (degenerate cases are exactly what the differential fuzzer
    exercises).
    ``store`` picks the intermediate-store policy for the functional
    backends (``"memory"`` or ``"spill"``; ``None`` consults
    ``$REPRO_STORE``) and ``memory_budget`` bounds the spill store's
    tracked bytes (``None`` consults ``$REPRO_MEMORY_BUDGET``) — see
    :mod:`repro.store`.  The sim backend ignores both.

    **Autotuning.**  ``mode=None`` (the new default) keeps the paper's
    SIO — unless the cost-model tuner (:mod:`repro.tune`) is engaged:
    ``mode="auto"`` has the backend pick (mode, strategy, block size)
    by predicted cycles; ``tune=True`` (or ``$REPRO_AUTOTUNE=1`` with
    ``mode`` and ``tune`` both unset) additionally picks the execution
    substrate, spill policy and budget by predicted wall time — but
    only for the knobs the call left open (an explicit ``backend``/
    ``store``/``memory_budget`` always wins).  ``tune=False`` opts a
    call out of the env.  The tuner never changes *what* the job
    computes: ``strategy=None`` stays Map-only; pass
    ``strategy="auto"`` (with mode auto/tuned) to let it pick TR vs
    BR, which are output-identical by construction.
    """
    spec.validate()
    strategy = resolve_strategy_name(strategy, allow_auto=True)
    if strategy is not None and strategy != "auto" and not spec.has_reduce:
        raise FrameworkError(f"workload {spec.name} has no Reduce phase")
    # Local import: repro.backend imports this module for JobResult.
    from ..backend import JobPlan, execute_plan, get_backend

    if tune and mode not in (None, "auto"):
        raise FrameworkError(
            "tune=True picks the memory mode itself; drop the explicit "
            f"mode={getattr(mode, 'value', mode)!r} or use mode='auto'"
        )
    tuned = None
    if tune or (tune is None and mode is None
                and resolve(names=("autotune",))["autotune"]):
        from ..tune import decide_execution

        cfg = config or (device.config if device is not None else None)
        tuned = decide_execution(spec, inp, strategy=strategy, config=cfg)
        mode = tuned.mode
        if strategy == "auto":
            strategy = tuned.strategy
        if threads_per_block is None:
            threads_per_block = tuned.threads_per_block
    elif mode is None:
        mode = MemoryMode.SIO

    plan = JobPlan(
        spec=spec,
        mode=mode,
        reduce_mode=reduce_mode,
        strategy=strategy,
        config=config,
        device=device,
        threads_per_block=threads_per_block,
        yield_sync=yield_sync,
        io_ratio=io_ratio,
        shuffle_method=shuffle_method,
        backend=backend,
        check=check,
        store=store,
        memory_budget=memory_budget,
        tuned=tuned,
    ).normalised()
    return execute_plan(plan, inp, get_backend(plan.settings["backend"]),
                        tracer)
