"""The :class:`ExecutionBackend` protocol.

A backend supplies the five phase primitives the execution core
(:mod:`repro.backend.core`) sequences into a job: charged input
upload, Map, Shuffle, Reduce, and charged output download — plus the
uncharged host/device conversions the streamed driver needs between
its batched Map and the Shuffle.

The main implementations:

* :class:`repro.backend.sim.SimBackend` — the cycle-accurate
  discrete-event simulator (the paper's numbers).  Intermediate
  handles are :class:`~repro.framework.records.DeviceRecordSet`
  images in simulated global memory.
* :class:`repro.backend.fast.FastBackend` — a dict-based functional
  executor that skips warp-level simulation entirely.  Handles are
  plain host :class:`~repro.framework.records.KeyValueSet` objects;
  only the host<->device transfer model is costed.
* :class:`repro.backend.sharded.ShardedBackend` — the fast executor
  sharded across worker processes (byte-split Map tasks, key-range
  Reduce tasks) over a fork-pool (``"parallel"``) or socket
  (``"dist"``) transport.  Handles are host record sets or the
  backend's private spill-run lists.

Handles are deliberately opaque to the core: it only ever passes them
back into the same backend.
"""

from __future__ import annotations

import abc
from typing import Any

from ..framework.records import KeyValueSet
from ..gpu.stats import KernelStats
from .plan import JobPlan


class ExecutionBackend(abc.ABC):
    """Phase primitives one execution substrate must provide."""

    #: Registry name ("sim", "fast").
    name: str = "?"

    # -- lifecycle -----------------------------------------------------

    @abc.abstractmethod
    def open(self, plan: JobPlan) -> Any:
        """Create the per-job execution context (device, config, ...)."""

    def resolve_auto(self, ctx: Any, plan: JobPlan, inp: KeyValueSet
                     ) -> JobPlan:
        """Resolve ``mode='auto'`` into a concrete plan."""
        raise NotImplementedError(
            f"backend {self.name!r} does not support mode='auto'"
        )

    def close(self, ctx: Any) -> None:
        """Release per-job execution resources.

        Called exactly once by the execution core when the job finishes
        (normally or with an error).  The default is a no-op; backends
        owning OS resources (the sharded backends' worker processes)
        override it.
        """

    # -- charged transfers ---------------------------------------------

    @abc.abstractmethod
    def upload_input(self, ctx: Any, kvs: KeyValueSet, label: str
                     ) -> tuple[Any, float]:
        """Stage the input; returns ``(handle, upload_cycles)``."""

    @abc.abstractmethod
    def download_output(self, ctx: Any, handle: Any
                        ) -> tuple[KeyValueSet, float]:
        """Retire a phase output to the host; returns
        ``(record_set, download_cycles)``."""

    # -- uncharged conversions (streamed driver) ------------------------

    @abc.abstractmethod
    def to_host(self, ctx: Any, handle: Any) -> KeyValueSet:
        """Read a phase output back without charging a transfer."""

    @abc.abstractmethod
    def stage_intermediate(self, ctx: Any, kvs: KeyValueSet, label: str
                           ) -> Any:
        """Re-stage a host-resident intermediate without charging a
        transfer (the streamed driver's pre-Shuffle hop)."""

    @abc.abstractmethod
    def record_count(self, ctx: Any, handle: Any) -> int:
        """Number of records behind a handle."""

    # -- phases ---------------------------------------------------------

    @abc.abstractmethod
    def map_phase(self, ctx: Any, d_in: Any, tr, *, batch: int | None = None
                  ) -> tuple[Any, KernelStats]:
        """Run Map over ``d_in``; returns ``(intermediate, stats)``.
        ``batch`` tags the kernel span when streaming."""

    @abc.abstractmethod
    def shuffle_phase(self, ctx: Any, inter: Any, tr, label: str
                      ) -> tuple[Any, float, int]:
        """Group the intermediate by key; returns
        ``(grouped_handle, cycles, n_groups)``."""

    @abc.abstractmethod
    def reduce_phase(self, ctx: Any, grouped: Any, tr, *,
                     include_grid: bool = True
                     ) -> tuple[Any, KernelStats]:
        """Run Reduce over the grouped sets; returns ``(out, stats)``."""

    # -- streamed sink ---------------------------------------------------
    # The streamed driver accumulates batched Map output into a "sink"
    # between Map and Shuffle.  The defaults reproduce the historical
    # behaviour exactly (an unbounded host record set); store-aware
    # backends override them to route batches into a budgeted
    # :class:`~repro.store.base.IntermediateStore` instead.

    def stream_sink(self, ctx: Any) -> Any:
        """Create the accumulator batched Map output is absorbed into."""
        return KeyValueSet()

    def absorb_batch(self, ctx: Any, sink: Any, handle: Any) -> None:
        """Fold one batch's Map output handle into the sink."""
        for k, v in self.to_host(ctx, handle):
            sink.append(k, v)

    def sink_count(self, ctx: Any, sink: Any) -> int:
        """Records accumulated in the sink so far."""
        return len(sink)

    # -- checking -------------------------------------------------------

    def finish_check(self, ctx: Any):
        """Detach the sanitizer and return its
        :class:`~repro.check.CheckReport`, or None when this backend
        did not run one (the default: only the sim backend simulates
        the machine state the detectors watch)."""
        return None

    # -- telemetry ------------------------------------------------------

    def finish_telemetry(self, ctx: Any):
        """Per-shard :class:`~repro.obs.telemetry.ShardProfile` list
        collected during the job, or None when this backend has no
        cross-process workers to profile (the default: only the
        sharded backends ship work to other processes)."""
        return None
