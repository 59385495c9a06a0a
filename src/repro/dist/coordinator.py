"""Coordinator: fault-tolerant task scheduling over socket workers.

The :class:`Cluster` owns a set of worker processes connected over
localhost TCP and drives them through the MapReduce master loop:

* **spawn** — workers are forked (so user Map/Reduce closures arrive
  by memory inheritance; see :mod:`repro.dist.worker`) and dial back
  to the coordinator's listening socket, identifying themselves with
  a ``hello`` frame;
* **assign** — each phase's tasks are dispatched one-at-a-time per
  worker (a worker is only ever sent a task while it is idle and
  blocked in ``recv``, so a large task frame can never deadlock
  against a worker trying to reply);
* **survive** — a torn connection means a dead worker: its in-flight
  task is re-queued with ``attempt + 1`` and runs elsewhere; if every
  worker is dead, a replacement is spawned under a fresh index (fresh
  index = fresh fault state, so a scripted kill cannot re-trip);
* **speculate** — a task outliving ``straggler_factor ×`` the median
  completed-task duration (floored at ``min_straggle_s``) is
  speculatively duplicated on an idle worker, the paper-lineage
  MapReduce backup-task trick;
* **dedupe** — every phase runs under a monotonically increasing
  *epoch*; task frames carry it and workers echo it back, so a reply
  is accepted only when its epoch matches the running phase and its
  shard is still open.  Late twins (speculation losers, slow replies
  from a phase — even a same-named one in a later streamed batch —
  that already finished) are recorded as ``duplicate`` events and
  dropped, which is what keeps retried/speculated runs byte-identical
  to a faultless one.

Scheduling is dynamic by default (first idle worker wins — fastest on
a real machine, but completion order races).  ``deterministic=True``
pins the assignment function — task ``shard`` with ``attempt`` goes
to ``alive[(shard + attempt) % len(alive)]`` — so the golden-trace
suite can pin exact assign/retry orderings under a scripted
:class:`~repro.dist.faults.FaultPlan`.

A worker reporting a *kernel* error (the user's Map/Reduce raised) is
not a fault to retry — the same code would fail identically anywhere
— so the coordinator aborts the job with a
:class:`~repro.errors.FrameworkError` instead of burning attempts.
"""

from __future__ import annotations

import multiprocessing
import selectors
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass

from ..errors import FrameworkError
from .faults import FaultPlan
from .tasks import configure
from .wire import FrameReader, recv_msg, send_msg
from .worker import worker_main

#: A shard is abandoned after this many attempts (initial + retries).
DEFAULT_MAX_ATTEMPTS = 4

#: Speculate when an in-flight task exceeds this multiple of the
#: median completed-task duration for the phase...
DEFAULT_STRAGGLER_FACTOR = 3.0

#: ...but never before this many seconds (tiny tasks finish in
#: microseconds; a microsecond-scale threshold would speculate
#: everything on a loaded CI machine).
DEFAULT_MIN_STRAGGLE_S = 0.25

#: How long to wait for a freshly spawned worker's ``hello``.
HELLO_TIMEOUT_S = 15.0

#: How long :meth:`Cluster.shutdown` waits for a worker to exit
#: before escalating to ``terminate`` and then ``kill``.
REAP_TIMEOUT_S = 5.0

#: Select-loop tick while a phase is incomplete: bounds straggler
#: detection latency without busy-waiting.
_TICK_S = 0.02


@dataclass(frozen=True)
class DistEvent:
    """One scheduling decision or observation, in occurrence order.

    ``kind`` is one of ``assign`` / ``complete`` / ``retry`` /
    ``speculate`` / ``duplicate`` / ``worker_dead`` / ``respawn``.
    ``worker`` and ``shard`` are ``-1`` where not applicable (an idle
    worker dying has no shard).
    """

    kind: str
    phase: str
    shard: int
    attempt: int
    worker: int

    def as_dict(self) -> dict:
        return {"kind": self.kind, "phase": self.phase,
                "shard": self.shard, "attempt": self.attempt,
                "worker": self.worker}


@dataclass
class _Task:
    phase: str
    shard: int
    attempt: int
    payload: dict
    epoch: int = 0


class _WorkerHandle:
    """Coordinator-side view of one worker process."""

    __slots__ = ("idx", "proc", "sock", "reader", "task", "started",
                 "pid", "alive")

    def __init__(self, idx: int, proc) -> None:
        self.idx = idx
        self.proc = proc
        self.sock: socket.socket | None = None
        self.reader = FrameReader()
        self.task: _Task | None = None
        self.started = 0.0
        self.pid = 0
        self.alive = False


class Cluster:
    """A pool of socket-connected worker processes plus the scheduler
    state needed to drive phases across them fault-tolerantly."""

    def __init__(self, workers: int, fault_plan: FaultPlan | None = None,
                 *, deterministic: bool = False,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 straggler_factor: float = DEFAULT_STRAGGLER_FACTOR,
                 min_straggle_s: float = DEFAULT_MIN_STRAGGLE_S):
        if workers < 1:
            raise FrameworkError("cluster needs at least one worker")
        self.workers = workers
        self.fault_plan = fault_plan or FaultPlan.none()
        self.deterministic = deterministic
        self.max_attempts = max_attempts
        self.straggler_factor = straggler_factor
        self.min_straggle_s = min_straggle_s
        #: Scheduling decisions in order — the golden-trace payload.
        self.events: list[DistEvent] = []
        #: Aggregate counters surfaced as kernel-stats extras.
        self.counters = {
            "map_tasks": 0, "reduce_tasks": 0, "retries": 0,
            "speculated": 0, "duplicates": 0, "worker_deaths": 0,
            "respawns": 0,
        }
        self._handles: dict[int, _WorkerHandle] = {}
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._next_idx = workers
        self._started = False
        self._closed = False
        #: Current phase epoch; bumped at every :meth:`run_phase` so
        #: stale replies from an earlier phase can never be mistaken
        #: for this one's (same-named phases included).
        self._epoch = 0
        #: Dispatch counter: every task send gets a unique token, so
        #: twin attempts of one (shard, attempt) never share worker-
        #: side spill file names.
        self._seq = 0

    # -- lifecycle -------------------------------------------------------

    def start(self, spec, strategy, is_mars) -> None:
        """Install the job spec and fork + connect the worker set."""
        if self._started:
            raise FrameworkError("cluster already started")
        self._started = True
        configure(spec, strategy, is_mars)
        self._mp = multiprocessing.get_context("fork")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(self.workers + 4)
        self._listener.settimeout(HELLO_TIMEOUT_S)
        self._port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        for idx in range(self.workers):
            self._fork(idx)
        for _ in range(self.workers):
            self._greet()

    def _fork(self, idx: int) -> None:
        proc = self._mp.Process(
            target=worker_main,
            args=(self._port, idx, self.fault_plan.for_worker(idx)),
            daemon=True,
        )
        proc.start()
        self._handles[idx] = _WorkerHandle(idx, proc)

    def _greet(self) -> None:
        """Accept one worker connection and match it to its handle."""
        try:
            conn, _ = self._listener.accept()
        except (socket.timeout, OSError) as exc:
            raise FrameworkError(
                f"worker failed to connect within {HELLO_TIMEOUT_S}s"
            ) from exc
        conn.settimeout(HELLO_TIMEOUT_S)
        try:
            hello = recv_msg(conn)
        except Exception as exc:
            conn.close()
            raise FrameworkError("worker handshake failed") from exc
        conn.settimeout(None)
        h = self._handles[hello["worker"]]
        h.sock = conn
        h.pid = hello["pid"]
        h.alive = True
        self._selector.register(conn, selectors.EVENT_READ, h)

    def shutdown(self) -> None:
        """Release every socket and reap every worker process.

        Idempotent, and called on every exit path (the backend's
        ``close`` runs under the execution core's ``try/finally``), so
        a raising kernel cannot orphan processes or leak FDs.
        """
        if self._closed:
            return
        self._closed = True
        for h in self._handles.values():
            if h.sock is not None:
                if h.alive:
                    try:
                        send_msg(h.sock, {"type": "shutdown"})
                    except OSError:
                        pass
                try:
                    self._selector.unregister(h.sock)
                except (KeyError, ValueError):
                    pass
                try:
                    h.sock.close()
                except OSError:
                    pass
                h.sock = None
            h.alive = False
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for h in self._handles.values():
            p = h.proc
            p.join(REAP_TIMEOUT_S)
            if p.is_alive():
                p.terminate()
                p.join(1.0)
            if p.is_alive():
                p.kill()
                p.join(1.0)
            # Release the Process object's own pipe FDs.
            p.close()

    # -- the phase loop --------------------------------------------------

    def run_phase(self, phase: str, tasks) -> dict[int, dict]:
        """Drive one phase's tasks to completion; returns the accepted
        result message per shard (exactly one, whatever faults fired).

        ``tasks`` is any iterable of ``(shard, payload)``.  A lazy
        iterator is pulled from only as workers come free, so a
        streamed task source (the out-of-core reduce) is materialised
        one in-flight payload at a time, never wholesale.
        """
        if self._closed:
            raise FrameworkError("cluster is shut down")
        self._epoch += 1
        epoch = self._epoch
        it = iter(tasks)
        pending: deque[_Task] = deque()
        done: dict[int, dict] = {}
        total = 0
        exhausted = False
        durations: list[float] = []
        speculated: set[int] = set()

        def pull() -> None:
            # Buffer just enough tasks to feed every idle worker.
            nonlocal total, exhausted
            if exhausted:
                return
            want = max(1, sum(1 for h in self._alive() if h.task is None))
            while len(pending) < want:
                try:
                    shard, payload = next(it)
                except StopIteration:
                    exhausted = True
                    return
                pending.append(_Task(phase, shard, 0, payload, epoch))
                total += 1

        pull()
        while not (exhausted and not pending and len(done) >= total):
            self._ensure_workers(phase, not exhausted or len(done) < total)
            pull()
            self._assign(pending, done)
            events = self._selector.select(_TICK_S)
            for key, _mask in events:
                self._service(key.data, phase, pending, done, durations)
            self._check_stragglers(phase, pending, done, durations,
                                   speculated)
        return done

    # -- scheduling ------------------------------------------------------

    def _alive(self) -> list[_WorkerHandle]:
        return [h for h in self._handles.values() if h.alive]

    def _ensure_workers(self, phase: str, needed: bool) -> None:
        """Respawn a replacement when the whole worker set has died
        with work outstanding.  Replacements get fresh indices, so a
        cumulative-record fault scripted for a dead index stays dead
        with it."""
        if not needed or self._alive():
            return
        idx = self._next_idx
        self._next_idx += 1
        self._fork(idx)
        self._greet()
        self.counters["respawns"] += 1
        self.events.append(DistEvent("respawn", phase, -1, -1, idx))

    def _assign(self, pending: deque[_Task], done: dict) -> None:
        if not pending:
            return
        alive = sorted(h.idx for h in self._alive())
        if not alive:
            return
        idle = {h.idx: h for h in self._alive() if h.task is None}
        if not idle:
            return
        if self.deterministic:
            # Pinned placement: the task waits for its designated
            # worker.  Stable across runs -> golden-traceable.
            deferred: deque[_Task] = deque()
            while pending:
                t = pending.popleft()
                target = alive[(t.shard + t.attempt) % len(alive)]
                h = idle.pop(target, None)
                if h is None:
                    deferred.append(t)
                else:
                    self._dispatch(h, t, pending, done)
            pending.extend(deferred)
        else:
            while pending and idle:
                h = idle.pop(min(idle))
                self._dispatch(h, pending.popleft(), pending, done)

    def _dispatch(self, h: _WorkerHandle, t: _Task, pending: deque,
                  done: dict) -> None:
        h.task = t
        h.started = time.perf_counter()
        self.counters[f"{t.phase}_tasks"] += 1
        self.events.append(
            DistEvent("assign", t.phase, t.shard, t.attempt, h.idx)
        )
        self._seq += 1
        msg = {"type": t.phase, "shard": t.shard, "attempt": t.attempt,
               "epoch": t.epoch, "seq": self._seq}
        msg.update(t.payload)
        try:
            send_msg(h.sock, msg)
        except OSError:
            # Died between select rounds; the death handler re-queues
            # the task we just pinned on the handle.
            self._on_worker_death(h, t.phase, pending, done)

    def _service(self, h: _WorkerHandle, phase: str, pending: deque,
                 done: dict, durations: list[float]) -> None:
        try:
            data = h.sock.recv(1 << 16)
        except OSError:
            data = b""
        if not data:
            self._on_worker_death(h, phase, pending, done)
            return
        h.reader.feed(data)
        for msg in h.reader.frames():
            self._on_message(h, msg, phase, done, durations)

    def _on_message(self, h: _WorkerHandle, msg: dict, phase: str,
                    done: dict, durations: list[float]) -> None:
        kind = msg.get("type")
        if kind not in ("result", "error"):
            raise FrameworkError(
                f"unexpected frame from worker {h.idx}: {kind!r}"
            )
        shard, attempt = msg.get("shard", -1), msg.get("attempt", -1)
        msg_phase = msg.get("phase")
        epoch = msg.get("epoch", -1)
        # Free the worker first: whatever the verdict on the reply,
        # the worker is idle again once it has replied.
        if (h.task is not None and h.task.shard == shard
                and h.task.phase == msg_phase and h.task.epoch == epoch):
            elapsed = time.perf_counter() - h.started
            h.task = None
        else:
            elapsed = None
        if epoch != self._epoch or msg_phase != phase or shard in done:
            # A speculation loser, a retry twin, or a stale reply from
            # a phase that already completed (the epoch is what tells a
            # later same-named phase — streamed batches renumber shards
            # from 0 — apart from the one this reply belongs to):
            # exactly-once means it must be dropped, not merged.  A
            # stale *error* is dropped too: the work it reports on is
            # no longer owned by any phase.
            self.counters["duplicates"] += 1
            self.events.append(
                DistEvent("duplicate", msg_phase, shard, attempt, h.idx)
            )
            return
        if kind == "error":
            raise FrameworkError(
                f"worker {h.idx} failed {msg_phase} shard "
                f"{shard}: {msg.get('message')}"
            )
        done[shard] = msg
        if elapsed is not None:
            durations.append(elapsed)
        self.events.append(
            DistEvent("complete", msg_phase, shard, attempt, h.idx)
        )

    def _on_worker_death(self, h: _WorkerHandle, phase: str,
                         pending: deque, done: dict) -> None:
        if not h.alive:
            return
        h.alive = False
        if h.sock is not None:
            try:
                self._selector.unregister(h.sock)
            except (KeyError, ValueError):
                pass
            try:
                h.sock.close()
            except OSError:
                pass
            h.sock = None
        h.proc.join(0.5)
        self.counters["worker_deaths"] += 1
        t, h.task = h.task, None
        self.events.append(DistEvent(
            "worker_dead", phase,
            t.shard if t is not None else -1,
            t.attempt if t is not None else -1,
            h.idx,
        ))
        if t is None or t.epoch != self._epoch or t.shard in done:
            # No task, or a task from a phase that already returned:
            # never re-queue a stale payload into the current phase.
            return
        nxt = t.attempt + 1
        if nxt >= self.max_attempts:
            raise FrameworkError(
                f"shard {t.shard} ({phase}) failed on {nxt} workers; "
                "giving up"
            )
        self.counters["retries"] += 1
        self.events.append(
            DistEvent("retry", phase, t.shard, nxt, h.idx)
        )
        pending.append(_Task(phase, t.shard, nxt, t.payload, t.epoch))

    def _check_stragglers(self, phase: str, pending: deque, done: dict,
                          durations: list[float],
                          speculated: set[int]) -> None:
        """Speculatively duplicate any in-flight task that has outlived
        the straggler threshold, MapReduce backup-task style."""
        busy = [h for h in self._alive()
                if h.task is not None and h.task.epoch == self._epoch
                and h.task.shard not in done
                and h.task.shard not in speculated
                # A backup copy runs as attempt+1; keep the configured
                # attempt ceiling uniform between retry and speculation.
                and h.task.attempt + 1 < self.max_attempts]
        if not busy:
            return
        threshold = self.min_straggle_s
        if durations:
            threshold = max(threshold,
                            self.straggler_factor
                            * statistics.median(durations))
        now = time.perf_counter()
        for h in busy:
            if now - h.started < threshold:
                continue
            idle = [g for g in self._alive()
                    if g.task is None and g.idx != h.idx]
            if not idle:
                continue
            target = min(idle, key=lambda g: g.idx)
            t = h.task
            self.counters["speculated"] += 1
            self.events.append(
                DistEvent("speculate", phase, t.shard, t.attempt + 1,
                          target.idx)
            )
            speculated.add(t.shard)
            self._dispatch(
                target,
                _Task(phase, t.shard, t.attempt + 1, t.payload, t.epoch),
                pending, done,
            )
