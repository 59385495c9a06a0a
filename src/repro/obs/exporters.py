"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and JSONL.

The Chrome format (loadable at https://ui.perfetto.dev) places host
spans on one track (pid 0), device activity on per-warp tracks of a
second process (pid 1): one thread per traced ``(block, warp)`` lane,
named ``block B / warp W`` — and, when a backend shipped per-shard
worker telemetry, pool-worker activity on per-worker tracks of a
third process (pid 2).

The timeline axis depends on the tracer's clock:

* **sim clock** (the default; every sim-backend trace): ``ts``/
  ``dur`` carry simulated cycles in the microsecond fields — absolute
  magnitudes are meaningless, relative ones are exact.  Serialisation
  is deterministic (sorted keys, insertion-ordered events, no
  wall-clock anywhere), so traces for a fixed seed are byte-stable
  across runs — the golden-trace suite's contract.
* **dual clock** (``Tracer(wall_clock=True)``; what ``repro-trace``
  uses for the fast and dist backends, whose kernel cycles are
  zero by design): host ``ts``/``dur`` carry wall microseconds
  rebased to the tracer's origin, and each span's ``args`` keeps the
  sim-clock interval (``sim_ts``/``sim_dur``) for cross-reference.

Worker tracks are always wall-based (that is the clock workers live
on); they only exist for dist runs, so sim traces never change.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import Tracer

HOST_PID = 0
DEVICE_PID = 1
WORKER_PID = 2

#: tid layout for device tracks: one slot per warp, block-major.
_WARP_SLOTS = 64


def _lane_tid(block: int, warp: int) -> int:
    return 1 + block * _WARP_SLOTS + warp


def _wall_mode(tracer: "Tracer") -> bool:
    """Export on the wall clock?  Only when the tracer opted in *and*
    at least one span carries complete wall stamps (a span-less or
    wall-less trace falls back to the deterministic sim-clock form)."""
    return bool(getattr(tracer, "wall_clock", False)) and any(
        sp.wall_start is not None and sp.wall_end is not None
        for sp in tracer.spans
    )


def to_chrome_trace(tracer: "Tracer") -> dict:
    """Convert a finished trace into a ``trace_event`` JSON object."""
    events: list[dict] = [
        {"ph": "M", "pid": HOST_PID, "tid": 0, "name": "process_name",
         "args": {"name": "host"}},
        {"ph": "M", "pid": HOST_PID, "tid": 0, "name": "thread_name",
         "args": {"name": "job phases"}},
    ]
    lanes = sorted({(e.block, e.warp) for e in tracer.device_events})
    if lanes:
        events.append({"ph": "M", "pid": DEVICE_PID, "tid": 0,
                       "name": "process_name", "args": {"name": "device"}})
        for block, warp in lanes:
            events.append({
                "ph": "M", "pid": DEVICE_PID, "tid": _lane_tid(block, warp),
                "name": "thread_name",
                "args": {"name": f"block {block} / warp {warp}"},
            })
    worker_events = getattr(tracer, "worker_events", ())
    workers = sorted({w.worker for w in worker_events})
    if workers:
        events.append({"ph": "M", "pid": WORKER_PID, "tid": 0,
                       "name": "process_name", "args": {"name": "workers"}})
        for w in workers:
            events.append({
                "ph": "M", "pid": WORKER_PID, "tid": w + 1,
                "name": "thread_name", "args": {"name": f"worker {w}"},
            })

    wall = _wall_mode(tracer)
    origin = getattr(tracer, "wall_origin_ns", 0)
    for sp in tracer.spans:
        if wall and sp.wall_start is not None and sp.wall_end is not None:
            events.append({
                "ph": "X", "pid": HOST_PID, "tid": 0, "cat": "host",
                "name": sp.name,
                "ts": (sp.wall_start - origin) / 1e3,
                "dur": (sp.wall_end - sp.wall_start) / 1e3,
                "args": {**sp.attrs, "sim_ts": sp.start,
                         "sim_dur": sp.duration},
            })
        else:
            events.append({
                "ph": "X", "pid": HOST_PID, "tid": 0, "cat": "host",
                "name": sp.name, "ts": sp.start, "dur": sp.duration,
                "args": dict(sp.attrs),
            })
    for ev in tracer.instants:
        if wall and ev.wall_time is not None:
            events.append({
                "ph": "i", "s": "t", "pid": HOST_PID, "tid": 0,
                "cat": "host", "name": ev.name,
                "ts": (ev.wall_time - origin) / 1e3,
                "args": {**ev.attrs, "sim_ts": ev.time},
            })
        else:
            events.append({
                "ph": "i", "s": "t", "pid": HOST_PID, "tid": 0,
                "cat": "host", "name": ev.name, "ts": ev.time,
                "args": dict(ev.attrs),
            })
    for de in tracer.device_events:
        tid = _lane_tid(de.block, de.warp)
        args = {"block": de.block, "warp": de.warp, "kernel": de.kernel,
                **de.attrs}
        if de.category == "mark":
            events.append({
                "ph": "i", "s": "t", "pid": DEVICE_PID, "tid": tid,
                "cat": "device", "name": de.name or "mark",
                "ts": de.start, "args": args,
            })
        else:
            events.append({
                "ph": "X", "pid": DEVICE_PID, "tid": tid, "cat": "device",
                "name": de.category, "ts": de.start, "dur": de.duration,
                "args": args,
            })
    for we in worker_events:
        events.append({
            "ph": "X", "pid": WORKER_PID, "tid": we.worker + 1,
            "cat": "worker", "name": we.name,
            "ts": (we.start_ns - origin) / 1e3,
            "dur": (we.end_ns - we.start_ns) / 1e3,
            "args": {"worker": we.worker, **we.attrs},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": ("wall microseconds (sim cycles in span args)"
                      if wall else "simulated GPU cycles"),
        },
    }


def write_chrome_trace(tracer: "Tracer", path: str) -> None:
    """Write the Chrome/Perfetto trace JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


def write_check_json(report, path: str) -> None:
    """Write a sanitizer :class:`~repro.check.CheckReport` as JSON.

    Duck-typed on ``report.to_dict()`` so :mod:`repro.obs` need not
    import :mod:`repro.check`; deterministic like every exporter here
    (sorted keys, no wall-clock).
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_jsonl(tracer: "Tracer", path: str) -> None:
    """Write a compact JSONL event log: one JSON object per line.

    Span records carry their tree position (``depth`` plus the parent
    span's name), device records their lane, worker records their
    track; the file replays in time order within each record class.
    Wall-clock fields (``wall_start_ns``/``wall_end_ns``, rebased to
    the tracer's origin) appear only on dual-clock traces, so
    sim-clock logs are byte-identical to the single-clock format.
    """
    origin = getattr(tracer, "wall_origin_ns", 0)
    with open(path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            rec = {
                "type": "span", "name": sp.name, "start": sp.start,
                "end": sp.end, "depth": sp.depth,
                "parent": sp.parent.name if sp.parent else None,
                "attrs": dict(sp.attrs),
            }
            if sp.wall_start is not None and sp.wall_end is not None:
                rec["wall_start_ns"] = sp.wall_start - origin
                rec["wall_end_ns"] = sp.wall_end - origin
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for ev in tracer.instants:
            rec = {
                "type": "instant", "name": ev.name, "time": ev.time,
                "attrs": dict(ev.attrs),
            }
            if ev.wall_time is not None:
                rec["wall_ns"] = ev.wall_time - origin
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for de in tracer.device_events:
            fh.write(json.dumps({
                "type": "device", "kernel": de.kernel, "block": de.block,
                "warp": de.warp, "category": de.category, "name": de.name,
                "start": de.start, "end": de.end, "attrs": dict(de.attrs),
            }, sort_keys=True) + "\n")
        for we in getattr(tracer, "worker_events", ()):
            fh.write(json.dumps({
                "type": "worker", "worker": we.worker, "name": we.name,
                "wall_start_ns": we.start_ns - origin,
                "wall_end_ns": we.end_ns - origin,
                "attrs": dict(we.attrs),
            }, sort_keys=True) + "\n")
