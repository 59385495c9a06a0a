"""Worker process: executes Map/Reduce tasks received over a socket.

One worker = one OS process, forked by the coordinator and connected
back over localhost TCP (:mod:`repro.dist.wire` frames).  The
Map/Reduce user functions reach the worker by fork inheritance —
:func:`repro.dist.tasks.configure` is called in the coordinator
process immediately before each fork, so arbitrary closures (test
kernels included) never cross the wire; only shard payloads and
results do.

The task bodies live in :mod:`repro.dist.tasks`.  This module adds
only the socket loop and the :class:`~repro.dist.faults.WorkerFault`
state, whose ``tick`` hook is threaded through the record loops so a scripted kill/drop/delay
trips at a deterministic record count.  A worker never retries or
dedupes anything: it is deliberately dumb and mortal, per the
MapReduce "workers assumed faulty" design — all recovery logic lives
in the coordinator.

User-kernel exceptions are *reported*, not fatal: the worker sends an
``error`` reply and keeps serving.  A deterministic kernel bug would
fail identically on every retry, so the coordinator aborts the job on
such a reply instead of burning attempts.
"""

from __future__ import annotations

import os
import socket
import time

from .faults import KILL_EXIT, WorkerFault
from .tasks import run_task
from .wire import ConnectionClosed, recv_msg, send_msg

# ----------------------------------------------------------------------
# Fault machinery
# ----------------------------------------------------------------------


class _DropConnection(Exception):
    """Internal control flow for a scripted ``drop`` fault."""


class _FaultState:
    """Per-worker fault bookkeeping: cumulative record count and the
    scripted trip points."""

    __slots__ = ("records", "trips", "delays")

    def __init__(self, faults: tuple[WorkerFault, ...]):
        self.records = 0
        self.trips = [f for f in faults if f.kind in ("kill", "drop")]
        self.delays = [f for f in faults if f.kind == "delay"]

    def tick(self, phase: str) -> None:
        """Count one processed record; trip any matured kill/drop."""
        self.records += 1
        for f in self.trips:
            if f.phase is not None and f.phase != phase:
                continue
            if self.records >= f.after_records:
                if f.kind == "kill":
                    # Die hard, mid-task: no farewell frame, no atexit,
                    # the socket tears and any spill run stays partial.
                    os._exit(KILL_EXIT)
                raise _DropConnection

    def delay_for(self, phase: str, shard: int | None) -> float:
        return sum(
            f.seconds for f in self.delays
            if (f.phase is None or f.phase == phase)
            and (f.shard is None or f.shard == shard)
        )


# ----------------------------------------------------------------------
# Main loop
# ----------------------------------------------------------------------


def worker_main(port: int, worker_id: int,
                faults: tuple[WorkerFault, ...] = ()) -> None:
    """Connect back to the coordinator and serve tasks until told to
    shut down, the connection dies, or a scripted fault trips."""
    state = _FaultState(tuple(faults))
    # A bare connect: create_connection's getaddrinfo would pay the
    # resolver's first-call set-up again in every freshly forked worker.
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(10)
        sock.connect(("127.0.0.1", port))
    except OSError:
        sock.close()
        return
    sock.settimeout(None)
    try:
        send_msg(sock, {"type": "hello", "worker": worker_id,
                        "pid": os.getpid()})
        while True:
            msg = recv_msg(sock)
            kind = msg.get("type")
            if kind == "shutdown":
                return
            if kind not in ("map", "reduce"):
                send_msg(sock, {"type": "error", "shard": msg.get("shard"),
                                "attempt": msg.get("attempt"),
                                "phase": kind, "epoch": msg.get("epoch"),
                                "message": f"unknown task type {kind!r}"})
                continue
            reply = {"type": "result", "phase": kind,
                     "shard": msg.get("shard"),
                     "attempt": msg.get("attempt"),
                     "epoch": msg.get("epoch")}
            try:
                reply.update(run_task(
                    kind, msg, state.tick if state.trips else None))
            except _DropConnection:
                # Scripted drop: no reply, close the socket, exit 0.
                return
            except Exception as exc:  # user kernel error: report it
                reply = {"type": "error", "phase": kind,
                         "shard": msg.get("shard"),
                         "attempt": msg.get("attempt"),
                         "epoch": msg.get("epoch"),
                         "message": f"{type(exc).__name__}: {exc}"}
            pause = state.delay_for(kind, msg.get("shard"))
            if pause > 0:
                time.sleep(pause)
            send_msg(sock, reply)
    except (ConnectionClosed, OSError):
        # Coordinator went away (job done, job failed, or shutdown
        # race): nothing left to serve.
        return
    finally:
        try:
            sock.close()
        except OSError:
            pass
