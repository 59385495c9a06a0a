"""Atomics linearizability: global tail reservations must chain.

Every ``atomicAdd`` on a global word returns the value it replaced,
so a correct execution's log for one address — sorted by returned old
value — forms a gap-free chain: each reservation starts exactly where
the previous one ended.  A duplicated old value means two warps were
handed the same reservation (they will overwrite each other's
output); a gap means a reservation was fabricated or lost.

The three output tail counters (key bytes, value bytes, record count)
are exactly such chains.  Zero-delta entries (reads dressed as
atomics) are legal anywhere in the chain.
"""

from __future__ import annotations

from .report import Finding


class AtomicsChecker:
    """Log-and-replay check over one launch's global atomics."""

    def __init__(self, report, config):
        self.report = report
        self.max_findings = config.max_findings
        self._log: dict[int, list[tuple[int, int]]] = {}

    def record(self, addr: int, old: int, delta: int) -> None:
        self._log.setdefault(addr, []).append((old, delta))

    def launch_finished(self) -> None:
        for addr, entries in sorted(self._log.items()):
            self.report.count("atomic_reservations", len(entries))
            if len(entries) < 2:
                continue
            entries.sort()
            expected = entries[0][0]
            for old, delta in entries:
                if old != expected:
                    kind = ("duplicate-reservation" if old < expected
                            else "reservation-gap")
                    what = ("two warps obtained overlapping reservations"
                            if old < expected
                            else "a reservation does not start where the "
                                 "previous one ended")
                    self.report.add(Finding(
                        detector="atomics",
                        kind=kind,
                        message=(f"atomic chain on global address {addr} "
                                 f"broken: old value {old} where {expected} "
                                 f"was expected — {what}"),
                        details={"addr": addr, "old": old,
                                 "expected": expected,
                                 "entries": len(entries)},
                    ), self.max_findings)
                    break
                expected = (old + delta) & 0xFFFFFFFF
