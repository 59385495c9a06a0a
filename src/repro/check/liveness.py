"""Liveness monitoring: conclusive deadlock detection.

Deadlock detection uses the simulator's strongest property: kernel
state only changes when a warp executes an instruction.  The monitor
counts *progress events* on a global tick; a polling warp records the
tick of its last failed probe.  When every registered warp is parked
(polling or at a barrier), at least one is polling, and every poller
has re-probed since the last progress event, no probe can ever
succeed again — that is a conclusive deadlock, caught within one poll
interval instead of after ``MAX_POLL_RETRIES`` probes.
"""

from __future__ import annotations

from .report import Finding

_RUN = 0
_POLL = 1
_BARRIER = 2
_DONE = 3


class _WarpState:
    __slots__ = ("state", "fail_tick")

    def __init__(self):
        self.state = _RUN
        self.fail_tick = -1


class LivenessMonitor:
    """Deadlock monitor for one launch."""

    def __init__(self, report, config):
        self.report = report
        self.max_findings = config.max_findings
        self.tick = 0
        self.warps: dict[tuple[int, int], _WarpState] = {}
        self._parked = 0  # warps in POLL/BARRIER/DONE
        self._deadlocked = False

    # -- warp lifecycle ------------------------------------------------

    def register(self, block_id: int, n_warps: int) -> None:
        for w in range(n_warps):
            self.warps[(block_id, w)] = _WarpState()

    def _wake(self, st: _WarpState) -> None:
        if st.state != _RUN:
            self._parked -= 1
            st.state = _RUN

    def progress(self, block_id: int, warp: int) -> None:
        st = self.warps.get((block_id, warp))
        if st is None:
            return
        self.tick += 1
        self._wake(st)

    def barrier_wait(self, block_id: int, warp: int) -> None:
        st = self.warps.get((block_id, warp))
        if st is None or st.state == _BARRIER:
            return
        if st.state == _RUN:
            self._parked += 1
        st.state = _BARRIER

    def barrier_release(self, block_id: int, warp_ids) -> None:
        self.tick += 1
        for w in warp_ids:
            st = self.warps.get((block_id, w))
            if st is not None:
                self._wake(st)

    def retired(self, block_id: int, warp: int) -> None:
        st = self.warps.get((block_id, warp))
        if st is None:
            return
        self.tick += 1
        if st.state == _RUN:
            self._parked += 1
        st.state = _DONE

    # -- deadlock ------------------------------------------------------

    def poll_blocked(self, block_id: int, warp: int) -> bool:
        """A poll probe failed; returns True on conclusive deadlock."""
        st = self.warps.get((block_id, warp))
        if st is None:
            return False
        if st.state == _RUN:
            self._parked += 1
        st.state = _POLL
        st.fail_tick = self.tick
        if self._parked < len(self.warps) or self._deadlocked:
            return False
        # Everyone is parked: deadlock iff every poller has re-probed
        # (and failed) since the last progress event.
        pollers = []
        for key, ws in self.warps.items():
            if ws.state == _POLL:
                if ws.fail_tick != self.tick:
                    return False
                pollers.append(key)
        if not pollers:
            return False  # pure barrier hang; the engine reports it
        self._deadlocked = True
        self.report.add(Finding(
            detector="liveness",
            kind="deadlock",
            message=(f"all {len(self.warps)} warps are parked and "
                     f"{len(pollers)} poll condition(s) can never be "
                     f"satisfied (no runnable warp remains)"),
            block=block_id,
            warp=warp,
            details={"pollers": [list(k) for k in sorted(pollers)],
                     "tick": self.tick},
        ), self.max_findings)
        return True

    def deadlock_reason(self) -> str:
        return ("sanitizer: every warp is polling or at a barrier and no "
                "warp can make progress (wait with no pending signal)")

    def note_deadlock(self, message: str) -> None:
        """The engine's own empty-heap deadlock check fired."""
        if self._deadlocked:
            return
        self._deadlocked = True
        self.report.add(Finding(
            detector="liveness", kind="deadlock", message=message,
        ), self.max_findings)
