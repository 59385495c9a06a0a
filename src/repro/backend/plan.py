"""The :class:`JobPlan`: one lowered description of a MapReduce job.

Every driver front-end (``run_job``, ``run_streamed_job``,
``IterativeJob.run``, ``run_mars_job``) reduces its arguments to a
``JobPlan`` — spec + memory modes + reduce strategy + device
configuration + batching policy — and hands it to
:func:`repro.backend.core.execute_plan`, which walks the paper's phase
sequence (upload -> Map -> Shuffle -> Reduce -> download) against a
pluggable :class:`~repro.backend.base.ExecutionBackend`.

The plan also centralises the presentation details that used to be
copy-pasted per driver: staging labels, tracer span attributes, and
the ``JobResult.mode`` label ("Mars" for the two-pass baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import Settings, resolve
from ..errors import FrameworkError
from ..framework.api import MapReduceSpec
from ..framework.modes import AUTO, MemoryMode, ReduceStrategy, \
    effective_reduce_mode, resolve_mode_name, resolve_strategy_name
from ..gpu.config import DeviceConfig

#: Engine selectors: the paper's single-pass shared-memory framework
#: vs. the Mars two-pass (count / scan / write) baseline.
ENGINE_SHARED = "shared"
ENGINE_MARS = "mars"


def _tuner_picks(decision) -> dict:
    """The knobs a wall-objective tuner decision fills in (the cycles
    objective never moves a job off its backend or store)."""
    if decision is None or decision.objective != "wall":
        return {}
    backend = decision.backend or "fast"
    if decision.workers:
        backend += f":{decision.workers}"
    return dict(backend=backend, store=decision.store,
                memory_budget=decision.memory_budget)


@dataclass(frozen=True)
class BatchPolicy:
    """Streamed execution: split the input into batches, optionally
    overlapping batch ``i+1``'s upload with batch ``i``'s Map kernel
    (paper Section III-A)."""

    n_batches: int = 4
    overlap: bool = True

    def validate(self) -> None:
        if self.n_batches <= 0:
            raise FrameworkError("n_batches must be positive")


@dataclass
class JobPlan:
    """Everything needed to execute one MapReduce job, minus the input."""

    spec: MapReduceSpec
    mode: MemoryMode | str = MemoryMode.SIO
    reduce_mode: MemoryMode | str | None = None
    #: ``None`` = Map-only job; a :class:`ReduceStrategy` pins it;
    #: ``"auto"`` (only with ``mode="auto"``) lets the tuner pick TR
    #: or BR from the input's cardinality and skew.
    strategy: ReduceStrategy | str | None = None
    engine: str = ENGINE_SHARED
    config: DeviceConfig | None = None
    device: object | None = None  # repro.gpu.kernel.Device
    #: ``None`` defaults to 128 at normalisation — except under
    #: ``mode="auto"``, where it stays open for the tuner to choose.
    threads_per_block: int | None = None
    yield_sync: bool = True
    io_ratio: float | None = None
    #: ``None`` means "engine default" — the Shuffle call is made with
    #: no explicit method, exactly as the Mars and streamed drivers
    #: always did.  ``run_job`` passes its ``shuffle_method`` through.
    shuffle_method: str | None = None
    batching: BatchPolicy | None = None
    #: The driver's explicit settings — backend name or instance,
    #: sanitizer request (bool, setting string or
    #: :class:`repro.check.CheckConfig`), intermediate store and spill
    #: budget.  ``None`` leaves each open for :mod:`repro.config`.  Only
    #: the sim backend checks; only the functional backends use a store.
    backend: object = None
    check: object = None
    store: str | None = None
    memory_budget: int | None = None
    #: The :class:`repro.tune.TunerDecision` that produced this plan,
    #: set by the backends' ``resolve_auto`` / ``run_job(tune=True)``.
    #: ``None`` for untuned plans — the ledger records them as such.
    tuned: object | None = None
    #: Every knob resolved from the fields above, the tuner's picks and
    #: the environment (:class:`repro.config.Settings`), filled by
    #: :meth:`normalised`.  Backends read settings only from here.
    settings: Settings | None = None

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------

    def normalised(self) -> "JobPlan":
        """Coerce string modes to enums and default the Reduce mode.

        ``mode="auto"`` is left untouched — it is resolved against a
        live backend context by :func:`repro.backend.core.execute_plan`
        (both backends route it through the cost-model tuner,
        :mod:`repro.tune`).  ``strategy="auto"`` and an unset
        ``threads_per_block`` are only legal alongside it: they are the
        knobs the tuner fills in.

        It also resolves every :mod:`repro.config` knob, once per job:
        a bad setting from any source raises here, before a backend
        opens or a worker starts.
        """
        if self.engine not in (ENGINE_SHARED, ENGINE_MARS):
            raise FrameworkError(f"unknown engine {self.engine!r}")
        settings = self.settings or resolve(
            dict(backend=self.backend, check=self.check, store=self.store,
                 memory_budget=self.memory_budget),
            tuner=_tuner_picks(self.tuned))
        mode = resolve_mode_name(self.mode, allow_auto=True)
        strategy = resolve_strategy_name(self.strategy, allow_auto=True)
        if strategy == AUTO and mode != AUTO:
            raise FrameworkError(
                "strategy 'auto' requires mode='auto' (the tuner picks "
                "both together); pin TR or BR with an explicit mode"
            )
        tpb = self.threads_per_block
        if tpb is None and mode != AUTO:
            tpb = 128
        reduce_mode = self.reduce_mode
        if reduce_mode is None:
            # With mode="auto" the Reduce mode stays undecided until the
            # backend resolves the plan against a live context.
            reduce_mode = mode if mode != AUTO else None
        else:
            reduce_mode = resolve_mode_name(reduce_mode)
        return replace(self, mode=mode, reduce_mode=reduce_mode,
                       strategy=strategy, threads_per_block=tpb,
                       settings=settings)

    def check_reduce(self) -> None:
        """Reject a Reduce no executor may run — the sim's reduce
        engine rules, shared by every functional backend: Mars needs a
        TR reduce fn, BR x GT is illegal, TR needs a reduce fn."""
        spec = self.spec
        if self.is_mars:
            if spec.reduce_record is None:
                raise FrameworkError(
                    f"{spec.name}: Mars reduce needs a TR reduce fn"
                )
            return
        effective_reduce_mode(self.reduce_mode, self.strategy)
        if (self.strategy is ReduceStrategy.TR
                and spec.reduce_record is None):
            raise FrameworkError(
                f"workload {spec.name} has no TR reduce function"
            )

    # ------------------------------------------------------------------
    # Presentation (labels + tracer span attributes)
    # ------------------------------------------------------------------

    @property
    def is_mars(self) -> bool:
        return self.engine == ENGINE_MARS

    @property
    def mode_label(self) -> str:
        """The mode as shown in traces and ``JobResult.mode``."""
        if self.is_mars:
            return "Mars"
        return getattr(self.mode, "value", self.mode)

    @property
    def result_mode(self):
        """The value stored in ``JobResult.mode``."""
        return "Mars" if self.is_mars else self.mode

    def input_label(self, batch: int | None = None) -> str:
        name = self.spec.name
        if self.batching is not None:
            return f"stream.{name}.{batch}"
        if self.is_mars:
            return f"mars_in.{name}"
        return f"in.{name}"

    def intermediate_label(self) -> str:
        return f"stream.inter.{self.spec.name}"

    def shuffle_label(self) -> str:
        name = self.spec.name
        if self.batching is not None:
            return f"stream.shuf.{name}"
        if self.is_mars:
            return f"mars_shuf.{name}"
        return f"shuf.{name}"

    def job_attrs(self, n_records: int) -> dict:
        attrs = dict(
            workload=self.spec.name,
            mode=self.mode_label,
            strategy=getattr(self.strategy, "value", self.strategy),
        )
        if self.batching is not None:
            attrs["n_batches"] = self.batching.n_batches
            attrs["overlap"] = self.batching.overlap
        elif not self.is_mars and self.shuffle_method is not None:
            attrs["shuffle"] = self.shuffle_method
        store = self.settings.requested("store")
        if store is not None:
            # Only requested policies land in span attrs: the default
            # and the env keep traces byte-identical.
            attrs["store"] = store
        if self.tuned is not None:
            attrs["tuned"] = True
            attrs["tuner_choice"] = self.tuned.choice
            attrs["tuner_predicted_cost"] = round(
                float(self.tuned.predicted_cost), 6)
            attrs["tuner_source"] = self.tuned.source
        attrs["records"] = n_records
        return attrs

    def map_attrs(self) -> dict:
        return {"mode": self.mode_label}

    def shuffle_attrs(self) -> dict:
        if self.is_mars or self.batching is not None:
            return {}
        return {"method": self.shuffle_method}

    def reduce_attrs(self) -> dict:
        if self.is_mars:
            return {"mode": "Mars"}
        attrs = {}
        if self.batching is None:
            attrs["mode"] = getattr(self.reduce_mode, "value", self.reduce_mode)
        attrs["strategy"] = getattr(self.strategy, "value", self.strategy)
        return attrs
