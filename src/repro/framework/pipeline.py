"""Iterative MapReduce driving (KMeans-style convergence loops).

Workloads like KMeans run MapReduce repeatedly, feeding each Reduce
output back into the next Map's constant region.  This module turns
the pattern from the examples into a library: an :class:`IterativeJob`
owns the loop, the per-iteration spec rewriting, the convergence test,
and the accumulated timing — so a user writes three small callbacks
instead of a driver script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import FrameworkError
from ..gpu.config import DeviceConfig
from ..obs.tracer import NULL_TRACER, Tracer
from .api import MapReduceSpec
from .job import JobResult, PhaseTimings, run_job
from .modes import MemoryMode, ReduceStrategy
from .records import KeyValueSet

#: Build the spec for iteration ``i`` from the loop state.
SpecFn = Callable[[int, object], MapReduceSpec]

#: Fold a finished iteration's output into the next state; returns the
#: new state.
UpdateFn = Callable[[int, JobResult, object], object]

#: Decide convergence from (iteration, old_state, new_state).
ConvergedFn = Callable[[int, object, object], bool]


@dataclass
class IterationTrace:
    index: int
    cycles: float
    output_records: int
    #: Full per-phase timing breakdown of the iteration's job, so
    #: convergence loops can be profiled phase by phase (not just by
    #: total cycles).
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    def phase_dict(self) -> dict[str, float]:
        return self.timings.as_dict()


@dataclass
class IterativeResult:
    state: object
    iterations: list[IterationTrace] = field(default_factory=list)
    converged: bool = False
    last: JobResult | None = None

    @property
    def total_cycles(self) -> float:
        return sum(t.cycles for t in self.iterations)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


@dataclass
class IterativeJob:
    """A convergence loop of MapReduce jobs.

    Example (KMeans)::

        job = IterativeJob(
            make_spec=lambda i, centroids: km_spec(centroids),
            update=lambda i, result, centroids: fold(result, centroids),
            converged=lambda i, old, new: shift(old, new) < 1e-4,
            mode=MemoryMode.SIO,
            strategy=ReduceStrategy.BR,
        )
        res = job.run(vectors_kvs, initial_centroids, max_iterations=20)
    """

    make_spec: SpecFn
    update: UpdateFn
    converged: ConvergedFn
    #: Memory mode of every iteration's job; ``None`` passes
    #: :func:`~repro.framework.job.run_job`'s default through, so
    #: ``$REPRO_AUTOTUNE=1`` tunes each iteration.
    mode: MemoryMode | None = MemoryMode.SIO
    strategy: ReduceStrategy | None = ReduceStrategy.TR
    config: DeviceConfig | None = None
    threads_per_block: int = 128
    #: Execution backend for every iteration's job: ``"sim"``,
    #: ``"fast"``, an ExecutionBackend instance, or ``None`` to
    #: consult ``$REPRO_BACKEND`` (see :mod:`repro.backend`).
    backend: object | None = None
    #: Sanitizer request for every iteration's job (see
    #: :func:`repro.framework.job.run_job`'s ``check``).
    check: object | None = None
    #: Intermediate-store policy and spill budget for every
    #: iteration's job (see :func:`repro.framework.job.run_job`).
    store: str | None = None
    memory_budget: int | None = None

    def run(self, inp: KeyValueSet, initial_state: object,
            *, max_iterations: int = 32,
            tracer: Tracer | None = None) -> IterativeResult:
        if max_iterations <= 0:
            raise FrameworkError("max_iterations must be positive")
        state = initial_state
        result = IterativeResult(state=state)
        tr = tracer if tracer is not None else NULL_TRACER
        with tr.span("iterative_job",
                     mode=self.mode.value if self.mode else None,
                     strategy=self.strategy.value if self.strategy else None):
            for i in range(max_iterations):
                spec = self.make_spec(i, state)
                with tr.span(f"iteration[{i}]", index=i):
                    job = run_job(
                        spec, inp, mode=self.mode, strategy=self.strategy,
                        config=self.config,
                        threads_per_block=self.threads_per_block,
                        tracer=tracer, backend=self.backend,
                        check=self.check, store=self.store,
                        memory_budget=self.memory_budget,
                    )
                new_state = self.update(i, job, state)
                result.iterations.append(IterationTrace(
                    index=i, cycles=job.total_cycles,
                    output_records=len(job.output),
                    timings=job.timings,
                ))
                result.last = job
                done = self.converged(i, state, new_state)
                state = new_state
                result.state = state
                if done:
                    result.converged = True
                    tr.instant("converged", iteration=i)
                    break
        return result
