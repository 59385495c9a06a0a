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

from ..errors import FrameworkError
from ..framework.api import MapReduceSpec
from ..framework.modes import AUTO, MemoryMode, ReduceStrategy, \
    effective_reduce_mode, resolve_mode_name, resolve_strategy_name
from ..gpu.config import DeviceConfig

#: Engine selectors: the paper's single-pass shared-memory framework
#: vs. the Mars two-pass (count / scan / write) baseline.
ENGINE_SHARED = "shared"
ENGINE_MARS = "mars"


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
    #: Sanitizer request: None (consult ``$REPRO_CHECK``), bool, a
    #: string like the env var, or a :class:`repro.check.CheckConfig`.
    #: Resolved by the backend at ``open``; the fast backend has no
    #: simulated device to check and ignores it.
    check: object = None
    #: Intermediate-store policy for the functional backends:
    #: ``"memory"`` (unbounded dict, the default behaviour),
    #: ``"spill"`` (budgeted out-of-core shuffle) or ``None`` to
    #: consult ``$REPRO_STORE``.  The sim backend models the device's
    #: own intermediate tiers and ignores this.
    store: str | None = None
    #: Approximate in-memory byte budget for ``store="spill"``
    #: (``None`` consults ``$REPRO_MEMORY_BUDGET``, then the spill
    #: default).  Ignored by the memory store, which is unbounded.
    memory_budget: int | None = None
    #: Columnar execution request for the fast backend: ``True``/
    #: ``False`` pin the path, ``None`` defers to the backend instance
    #: and then ``$REPRO_COLUMNAR``.  The sim and parallel backends
    #: ignore this (the parallel backend's inner fast executor is
    #: pinned scalar so worker output never depends on the env).
    columnar: bool | None = None
    #: The :class:`repro.tune.TunerDecision` that produced this plan,
    #: set by the backends' ``resolve_auto`` / ``run_job(tune=True)``.
    #: ``None`` for untuned plans — the ledger records them as such.
    tuned: object | None = None

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
        """
        if self.engine not in (ENGINE_SHARED, ENGINE_MARS):
            raise FrameworkError(f"unknown engine {self.engine!r}")
        store = self.store
        if store is not None:
            # Validate eagerly (same friendly error surface as modes);
            # None is left open for the backend's env consultation.
            from ..store import resolve_store_name

            store = resolve_store_name(store)
        if self.memory_budget is not None and self.memory_budget < 1:
            raise FrameworkError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
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
                       store=store)

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
        if self.store is not None:
            # Only explicit policies land in span attrs: the default
            # (None -> env -> "memory") keeps traces byte-identical.
            attrs["store"] = self.store
        if self.columnar is not None:
            # Same rule as ``store``: only explicit requests appear,
            # keeping default traces byte-identical.
            attrs["columnar"] = self.columnar
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
