"""Batched execution with transfer/compute overlap (paper Section III-A).

"Otherwise, batched processing is again possible at another level and
it is possible to overlap GPU kernel execution with host-device data
transfer."  This module implements that outer level: the input record
set is split into batches; each batch is uploaded and mapped as its
own kernel launch, and with ``overlap=True`` the upload of batch
``i+1`` proceeds concurrently with the Map kernel of batch ``i``
(classic CUDA double-buffered streams).  The Shuffle and Reduce phases
then run over the union of the batches' intermediate outputs.

Timing composition for the overlapped Map pipeline::

    total_map = upload(0) + sum_i max(map(i), upload(i+1)) + map(B-1)
                                         (with upload(B) = 0)

Functional behaviour is identical to the single-shot job (asserted by
the test suite): batching only changes *when* data moves.

``run_streamed_job`` is a thin front-end since the backend refactor:
it lowers to a :class:`~repro.backend.plan.JobPlan` with a
:class:`~repro.backend.plan.BatchPolicy` and hands it to
:func:`repro.backend.core.execute_plan`, the same sequencer a
single-shot job runs — only its Map stage loops over the batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FrameworkError
from ..gpu.config import DeviceConfig
from ..gpu.stats import KernelStats
from ..obs.tracer import Tracer
from .api import MapReduceSpec
from .job import JobResult
from .modes import MemoryMode, ReduceStrategy
from .records import KeyValueSet


@dataclass
class BatchTrace:
    """Per-batch accounting for the streamed Map pipeline."""

    records: int
    upload_cycles: float
    map_cycles: float
    map_stats: KernelStats = field(default_factory=KernelStats)


@dataclass
class StreamedResult:
    """A :class:`JobResult` plus the batch pipeline trace."""

    job: JobResult
    batches: list[BatchTrace]
    overlapped: bool

    @property
    def serial_map_io(self) -> float:
        """What upload+map would cost without overlap."""
        return sum(b.upload_cycles + b.map_cycles for b in self.batches)

    @property
    def pipelined_map_io(self) -> float:
        """Upload+map under double buffering."""
        if not self.batches:
            return 0.0
        total = self.batches[0].upload_cycles
        for i, b in enumerate(self.batches):
            next_up = (
                self.batches[i + 1].upload_cycles
                if i + 1 < len(self.batches)
                else 0.0
            )
            total += max(b.map_cycles, next_up)
        return total

    @property
    def overlap_saving(self) -> float:
        return self.serial_map_io - self.pipelined_map_io


def split_batches(inp: KeyValueSet, n_batches: int) -> list[KeyValueSet]:
    """Split a record set into ``n_batches`` contiguous slices."""
    if n_batches <= 0:
        raise FrameworkError("n_batches must be positive")
    n = len(inp)
    per = max(1, -(-n // n_batches))
    keys, values = inp.keys, inp.values
    return [KeyValueSet.from_lists(keys[lo:lo + per], values[lo:lo + per])
            for lo in range(0, n, per)]


def run_streamed_job(
    spec: MapReduceSpec,
    inp: KeyValueSet,
    *,
    n_batches: int = 4,
    overlap: bool = True,
    mode: MemoryMode = MemoryMode.SIO,
    strategy: ReduceStrategy | None = None,
    config: DeviceConfig | None = None,
    threads_per_block: int = 128,
    yield_sync: bool = True,
    tracer: Tracer | None = None,
    backend=None,
    check=None,
    store: str | None = None,
    memory_budget: int | None = None,
) -> StreamedResult:
    """Run a job with the input streamed through the device in batches.

    With a ``tracer``, each batch becomes a span holding its upload
    and Map-kernel children.  Batch spans are laid out serially on the
    job clock even under ``overlap=True`` (the trace shows per-batch
    costs; the pipelined total is recorded on the stream span's
    ``pipelined_map_io`` attribute).
    ``backend`` selects the execution substrate and ``check`` the
    sanitizer; ``store``/``memory_budget`` pick the intermediate-store
    policy (see :func:`repro.framework.job.run_job`) — under
    ``store="spill"`` the functional backends stream batch output into
    a budgeted store instead of an unbounded host record set.  An
    empty input yields zero batches and an empty output.
    """
    spec.validate()
    # Local import: repro.backend imports this module for StreamedResult.
    from ..backend import BatchPolicy, JobPlan, backend_for, execute_plan

    plan = JobPlan(
        spec=spec,
        mode=mode,
        strategy=strategy,
        config=config,
        threads_per_block=threads_per_block,
        yield_sync=yield_sync,
        batching=BatchPolicy(n_batches=n_batches, overlap=overlap),
        backend=backend,
        check=check,
        store=store,
        memory_budget=memory_budget,
    ).normalised()
    return execute_plan(plan, inp, backend_for(plan.settings["backend"]),
                        tracer)
