"""The decision layer: profile, consult history, price, choose.

Two entry points, one per objective:

* :func:`decide_modes` — the **cycles** objective.  Prices every legal
  (memory mode, reduce strategy, block size) combination with
  :func:`repro.tune.cost.estimate_cycles` and returns the cheapest.
  This is what the execution core (:mod:`repro.backend.core`) applies,
  on every backend, when a plan says ``mode="auto"``.
* :func:`decide_execution` — the **wall-clock** objective.  Also picks
  the execution substrate (fast / columnar) and the spill
  budget with :func:`repro.tune.cost.estimate_wall`.  This is what
  ``run_job(tune=True)`` / ``$REPRO_AUTOTUNE`` applies before a
  backend is even constructed.

Both consult the run ledger first (:mod:`repro.tune.calibrate`): its
corrections always apply, and when the exact input has already been
*swept* (>= :data:`HISTORY_MIN_CONFIGS` distinct configurations
measured for the same workload + digest) the measured winner overrides
the model — remembering beats modelling.  The returned
:class:`TunerDecision` carries the choice, the predicted cost, and a
JSON-able summary that the drivers put into KernelStats extras, trace
span attributes and the run ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..framework.modes import ALL_MODES, AUTO, MemoryMode, ReduceStrategy
from ..obs.ledger import digest_input
from .calibrate import CalibrationState, load_calibration
from .cost import Candidate, estimate_cycles, estimate_wall
from .profiler import InputStats, profile_input

#: History overrides the model only when the ledger measured at least
#: this many distinct configurations of the exact same input.
HISTORY_MIN_CONFIGS = 2

#: Block sizes the cycles objective explores when none is pinned.
TPB_CANDIDATES = (64, 128, 256)

#: Spill ceiling: estimated intermediate footprints beyond this are
#: planned with the spillable store and this budget (overridable).
DEFAULT_MEMORY_CEILING = 256 << 20


@dataclass(frozen=True)
class TunerDecision:
    """One resolved choice, with everything needed to audit it."""

    mode: MemoryMode
    strategy: ReduceStrategy | None
    threads_per_block: int = 128
    #: Execution substrate — ``None`` when only modes were decided
    #: (the cycles objective never moves a job off its backend).
    backend: str | None = None
    store: str | None = None
    memory_budget: int | None = None
    #: Model output: predicted cost of the chosen candidate, in the
    #: objective's unit (cycles or seconds).
    predicted_cost: float = 0.0
    objective: str = "cycles"
    #: ``model`` (cost model picked) or ``history`` (ledger sweep of
    #: this exact input overrode the model).
    source: str = "model"
    #: How many candidates were priced.
    considered: int = 0
    stats: InputStats | None = None

    @property
    def choice(self) -> str:
        """Compact label, e.g. ``SO/BR@128`` or ``G/TR@128 columnar``."""
        strat = self.strategy.value if self.strategy else "-"
        text = f"{self.mode.value}/{strat}@{self.threads_per_block}"
        if self.backend:
            text += f" {self.backend}"
            if self.store == "spill":
                text += "+spill"
        return text

    def summary(self) -> dict:
        """JSON-able form for span attrs / KernelStats / the ledger."""
        out = {
            "choice": self.choice,
            "predicted_cost": round(float(self.predicted_cost), 6),
            "objective": self.objective,
            "source": self.source,
            "considered": self.considered,
        }
        if self.stats is not None:
            out["input"] = self.stats.summary()
        return out


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------


def _strategies(spec, pinned):
    """``None`` pins map-only (``run_job``'s meaning of ``None``); a
    :class:`ReduceStrategy` pins itself; ``"auto"`` lets the tuner
    explore TR vs BR (map-only when the spec has no Reduce)."""
    if isinstance(pinned, ReduceStrategy):
        return (pinned,)
    if getattr(spec, "reduce_record", None) is None:
        return (None,)
    if pinned == AUTO:
        return (ReduceStrategy.TR, ReduceStrategy.BR)
    return (None,)


def _mode_candidates(spec, *, strategy, threads_per_block):
    tpbs = (threads_per_block,) if threads_per_block else TPB_CANDIDATES
    for strat in _strategies(spec, strategy):
        for mode in ALL_MODES:
            if strat is ReduceStrategy.BR and mode is MemoryMode.GT:
                continue  # texture cache incoherent with in-place BR
            for tpb in tpbs:
                yield Candidate(mode=mode, strategy=strat,
                                threads_per_block=tpb)


def _history_candidate(calibration, spec, digest, candidates):
    """The ledger's measured winner, if this exact input was swept and
    the winning configuration is one we are allowed to pick."""
    configs = calibration.history.get((spec.name, digest), {})
    if len(configs) < HISTORY_MIN_CONFIGS:
        return None
    _, rec = min(configs.values(), key=lambda entry: entry[0])
    for cand in candidates:
        if cand.mode.value != rec.get("mode"):
            continue
        strat = cand.strategy.value if cand.strategy else None
        if strat != rec.get("strategy"):
            continue
        if cand.backend != "sim" and cand.backend != rec.get("backend"):
            continue
        return cand
    return None


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------


def decide_modes(
    spec,
    inp,
    *,
    config,
    strategy: ReduceStrategy | str | None = "auto",
    threads_per_block: int | None = None,
    calibration: CalibrationState | None = None,
    stats: InputStats | None = None,
) -> TunerDecision:
    """Pick (mode, strategy, block size) by predicted simulated cycles.

    ``strategy="auto"`` (the default) explores TR vs BR; ``None`` pins
    a map-only job; a :class:`ReduceStrategy` pins itself.  A concrete
    ``threads_per_block`` pins the block size, ``None`` explores
    :data:`TPB_CANDIDATES`.
    """
    stats = stats or profile_input(spec, inp)
    calibration = calibration if calibration is not None \
        else load_calibration()
    constants = calibration.constants()
    candidates = list(_mode_candidates(
        spec, strategy=strategy, threads_per_block=threads_per_block))
    priced = {
        cand: estimate_cycles(stats, cand, config, constants)
        for cand in candidates
    }
    pick = min(priced, key=priced.get)
    source = "model"
    hist = _history_candidate(calibration, spec, digest_input(inp),
                              candidates)
    if hist is not None and hist is not pick:
        pick, source = hist, "history"
    return TunerDecision(
        mode=pick.mode,
        strategy=pick.strategy,
        threads_per_block=pick.threads_per_block,
        predicted_cost=priced[pick],
        objective="cycles",
        source=source,
        considered=len(candidates),
        stats=stats,
    )


def _execution_candidates(spec, stats, *, memory_ceiling):
    store = None
    budget = None
    if stats.est_intermediate_bytes > memory_ceiling:
        store, budget = "spill", int(memory_ceiling)
    base = dict(store=store, memory_budget=budget)
    yield Candidate(backend="fast", **base)
    batched = getattr(spec, "map_batch", None) is not None \
        or getattr(spec, "reduce_batch", None) is not None
    if batched:
        yield Candidate(backend="columnar", **base)


def decide_execution(
    spec,
    inp,
    *,
    strategy: ReduceStrategy | str | None = "auto",
    memory_ceiling: int = DEFAULT_MEMORY_CEILING,
    calibration: CalibrationState | None = None,
    stats: InputStats | None = None,
    config=None,
) -> TunerDecision:
    """Pick the execution substrate (and budget) by predicted wall time,
    then fill in modes with the cycles objective for a complete plan.

    ``strategy`` carries ``run_job``'s semantics: ``None`` means the
    job is Map-only (the tuner never adds a Reduce phase), an enum
    pins it, ``"auto"`` lets the cycles objective pick TR vs BR.

    Called by ``run_job(tune=True)`` / ``$REPRO_AUTOTUNE`` *before*
    the backend is constructed — the one place backend choice can
    still change.
    """
    stats = stats or profile_input(spec, inp)
    calibration = calibration if calibration is not None \
        else load_calibration()
    constants = calibration.constants()
    has_reduce = getattr(spec, "reduce_record", None) is not None \
        and strategy is not None

    candidates = list(_execution_candidates(
        spec, stats, memory_ceiling=memory_ceiling))
    # The wall objective needs a strategy to price Reduce: use TR as
    # the pricing baseline when the choice is open (strategy choice
    # itself belongs to the cycles objective below and does not move
    # wall cost materially).
    if isinstance(strategy, ReduceStrategy):
        pricing = strategy
    else:
        pricing = ReduceStrategy.TR if has_reduce else None
    priced = {
        cand: estimate_wall(stats, replace(cand, strategy=pricing), spec,
                            constants=constants)
        for cand in candidates
    }
    pick = min(priced, key=priced.get)
    source = "model"
    hist = _history_candidate(calibration, spec, digest_input(inp),
                              candidates)
    if hist is not None and hist is not pick:
        pick, source = hist, "history"

    if config is None:
        from ..gpu.config import DeviceConfig
        config = DeviceConfig.small(4)
    modes = decide_modes(spec, inp, config=config, strategy=strategy,
                         calibration=calibration, stats=stats)
    return TunerDecision(
        mode=modes.mode,
        strategy=modes.strategy,
        threads_per_block=modes.threads_per_block,
        backend=pick.backend,
        store=pick.store,
        memory_budget=pick.memory_budget,
        predicted_cost=priced[pick],
        objective="wall",
        source=source,
        considered=len(candidates) + modes.considered,
        stats=stats,
    )
