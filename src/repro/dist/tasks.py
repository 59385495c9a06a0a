"""Map/Reduce task bodies shared by every sharded worker.

Both transports of the sharded backend — the fork pool behind
:class:`~repro.backend.parallel.ParallelBackend` and the socket
workers of :mod:`repro.dist.worker` — run the same two functions on
the same message shapes, so a shard's output never depends on how the
task reached its worker:

* :func:`run_map` takes ``{"shard", "pairs", ["spill"], ["attempt",
  "seq"]}`` and returns ``{"pairs": [...], "profile": {...}}``.  Under
  a spill store (``"spill": [run_dir, budget]``) every emission goes
  straight into key-sorted run files instead, and the reply carries
  ``{"spilled": {...}, "profile": {...}}``.
* :func:`run_reduce` takes ``{"shard", "groups": [[key, [value,
  ...]], ...]}`` and returns ``{"pairs": [...], "profile": {...}}``.
  It runs the strategy exactly like the fast backend: the full BR fold
  per group, or the TR reduce fn over memoised value accessors.

The ``profile`` dict holds the fields of a
:class:`~repro.obs.telemetry.ShardProfile` minus phase and shard.

The job's spec reaches workers by fork inheritance: :func:`configure`
runs in the parent just before the fork (or as a pool initializer), so
user closures never cross a process boundary.  The optional
``tick(phase)`` hook is called once per input record (Map) or value
(Reduce) before it is processed; the socket worker threads its
scripted faults through it.
"""

from __future__ import annotations

import os
import time
from functools import reduce as _fold

from ..errors import FrameworkError
from ..framework.modes import ReduceStrategy
from ..gpu.accessor import Accessor, host_accessor
from ..store import SpillStore

_SPEC = None
_STRATEGY: ReduceStrategy | None = None
_IS_MARS = False


def configure(spec, strategy, is_mars) -> None:
    """Install the job's spec in this process (children forked after
    this call inherit it)."""
    global _SPEC, _STRATEGY, _IS_MARS
    _SPEC = spec
    _STRATEGY = strategy
    _IS_MARS = is_mars


def _emitter(sink):
    """The ``emit(k, v)`` user functions call: bytearray/memoryview
    emits are validated and copied like the simulator's collector and
    the fast backend do, then handed to ``sink(k, v)``."""

    def emit(k, v) -> None:
        if type(k) is not bytes or type(v) is not bytes:
            if not isinstance(k, (bytes, bytearray)) or not isinstance(
                v, (bytes, bytearray)
            ):
                raise FrameworkError("keys and values must be bytes")
            k, v = bytes(k), bytes(v)
        sink(k, v)

    return emit


def _profile(t0: int, records_in: int, records_out: int,
             distinct_keys: int = 0, **extra) -> dict:
    doc = {
        "pid": os.getpid(), "start_ns": t0,
        "end_ns": time.perf_counter_ns(), "records_in": records_in,
        "records_out": records_out, "distinct_keys": distinct_keys,
    }
    doc.update(extra)
    return doc


def run_map(msg: dict, tick=None) -> dict:
    """Map one split; see the module docstring for the shapes."""
    spec = _SPEC
    t0 = time.perf_counter_ns()
    pairs = msg["pairs"]
    const = host_accessor(spec.const_bytes) if spec.const_bytes else None
    map_record = spec.map_record
    spill = msg.get("spill")
    if spill is not None:
        run_dir, budget = spill
        # Dispatch-scoped run prefix: the coordinator's seq token is
        # unique per task send, so a killed attempt's partial files —
        # or a twin's (a speculated copy and a death-requeued retry
        # can share (shard, attempt)) — can never collide with, or be
        # merged as, the accepted execution's runs.
        store = SpillStore(
            budget, spill_dir=run_dir,
            prefix=(f"s{msg['shard']:04d}a{msg.get('attempt', 0):02d}"
                    f"d{msg.get('seq', 0):06d}"),
            own_dir=False)
        emit = _emitter(store.emit)
    else:
        out: list[tuple[bytes, bytes]] = []
        append = out.append
        emit = _emitter(lambda k, v: append((k, v)))
    for k, v in pairs:
        if tick is not None:
            tick("map")
        map_record(host_accessor(k), host_accessor(v), emit, const)
    if spill is None:
        return {"pairs": out,
                "profile": _profile(t0, len(pairs), len(out),
                                    len({k for k, _ in out}))}
    runs = store.flush_runs()
    st = store.stats
    return {
        "spilled": {
            "runs": runs, "emitted": st.emitted_records,
            "peak_bytes": st.peak_bytes, "spill_runs": st.spill_runs,
            "spilled_bytes": st.spilled_bytes,
        },
        "profile": _profile(t0, len(pairs), st.emitted_records,
                            spill_runs=st.spill_runs,
                            spilled_bytes=st.spilled_bytes),
    }


def run_reduce(msg: dict, tick=None) -> dict:
    """Reduce one contiguous range of key groups."""
    spec = _SPEC
    t0 = time.perf_counter_ns()
    groups = msg["groups"]
    out: list[tuple[bytes, bytes]] = []
    n_values = 0
    if _STRATEGY is ReduceStrategy.BR and not _IS_MARS:
        combine, finalize = spec.combine, spec.finalize
        for key, values in groups:
            n_values += len(values)
            if tick is not None:
                for _ in values:
                    tick("reduce")
            k_out, v_out = finalize(key, _fold(combine, values),
                                    len(values))
            out.append((bytes(k_out), bytes(v_out)))
    else:
        append = out.append
        emit = _emitter(lambda k, v: append((k, v)))
        const = host_accessor(spec.const_bytes) if spec.const_bytes else None
        reduce_record = spec.reduce_record
        cache: dict[bytes, Accessor] = {}

        def acc_of(data: bytes) -> Accessor:
            a = cache.get(data)
            if a is None:
                a = host_accessor(data)
                cache[data] = a
            return a

        for key, values in groups:
            n_values += len(values)
            if tick is not None:
                for _ in values:
                    tick("reduce")
            reduce_record(acc_of(key), [acc_of(v) for v in values],
                          emit, const)
    return {"pairs": out,
            "profile": _profile(t0, n_values, len(out), len(groups))}


def run_task(phase: str, msg: dict, tick=None) -> dict:
    """Run one ``"map"`` or ``"reduce"`` task message."""
    return (run_map if phase == "map" else run_reduce)(msg, tick)
