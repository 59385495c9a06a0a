"""Persistent run ledger: one JSONL record per executed job.

Every :func:`repro.backend.core.execute_plan` /
:func:`~repro.backend.core.execute_streamed` invocation appends a
:func:`build_record` line to ``.repro/runs.jsonl`` — workload, mode,
strategy, backend, worker count, input size and digest, simulated
cycles, wall seconds, a KernelStats digest, analysis-cache hit rate,
check-finding count, straggler skew, intermediate-store spill
accounting (policy, runs written, bytes spilled) and columnar-path
accounting (batches, vectorized Map/Reduce counts).  Unlike the hand-regenerated
``BENCH_*.json`` snapshots, the ledger accumulates *every* run, so
``repro-report`` can render performance trajectories over time and
flag regressions against a rolling baseline.

Design constraints:

* **Never fail the job.**  Ledger writes swallow ``OSError`` — a
  read-only working directory degrades to "no ledger", not a crash.
* **Append-only and concurrency-safe.**  Each record is one JSON line
  written with a single ``O_APPEND`` ``write`` syscall, so two
  parallel jobs interleave whole lines, never bytes
  (:func:`read_ledger` additionally skips any malformed line).
* **Opt-out via env.**  ``REPRO_LEDGER=0`` (or ``off``/``false``/
  ``no``) disables recording; ``REPRO_LEDGER_DIR`` points the ledger
  at a different directory (tests and benchmarks use this to keep
  their runs out of the working tree's ledger).  Both are
  :mod:`repro.config` settings, resolved once per job.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from hashlib import blake2b
from typing import TYPE_CHECKING, Iterable

from ..config import KNOBS, resolve

if TYPE_CHECKING:  # pragma: no cover
    from ..framework.records import KeyValueSet
    from ..gpu.stats import KernelStats

#: Set to ``0``/``off``/``false``/``no`` to disable the ledger.
LEDGER_ENV = KNOBS["ledger"].env
#: Overrides the ledger directory (default ``.repro`` under the cwd).
LEDGER_DIR_ENV = KNOBS["ledger_dir"].env

LEDGER_NAME = "runs.jsonl"
#: Schema 2 added the tuner fields (``tuned``, ``tuner_choice``,
#: ``tuner_predicted_cost``, ``tuner_error`` — all null for untuned
#: runs); schema 3 added ``config``, the knobs not at their default.
#: :func:`read_ledger` stays version-tolerant: readers use ``.get`` and
#: must accept older lines with the fields absent.
SCHEMA = 3


def ledger_path(settings=None) -> str:
    """The ledger file of the ``ledger_dir`` setting (``settings``, or
    resolved now)."""
    if settings is None:
        settings = resolve(names=("ledger_dir",))
    return os.path.join(settings["ledger_dir"], LEDGER_NAME)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def digest_input(kvs: "KeyValueSet") -> str:
    """Short stable digest of an input record set.

    Joins the key and value columns through C-level hashing — cheap
    enough to run on every job, and stable across processes (unlike
    ``hash``).  Two runs with the same digest read the same input.
    """
    h = blake2b(digest_size=8)
    h.update(len(kvs).to_bytes(8, "little"))
    h.update(b"\x1f".join(kvs.keys))
    h.update(b"\x1e")
    h.update(b"\x1f".join(kvs.values))
    return h.hexdigest()


def kernel_digest(*stats: "KernelStats") -> str:
    """Short digest over every numeric counter of the job's launches.

    Cycle counts, instruction mixes and stall totals all feed in, so
    any timing-model drift between two runs of the same input changes
    the digest — the ledger-level analogue of the golden-trace pin.
    """
    h = blake2b(digest_size=8)
    for st in stats:
        for f in dataclasses.fields(st):
            value = getattr(st, f.name)
            if isinstance(value, (int, float)):
                h.update(f"{f.name}={value!r};".encode())
        for key in sorted(st.extra):
            h.update(f"extra.{key}={st.extra[key]!r};".encode())
        for cat in sorted(st.stall_cycles):
            h.update(f"stall.{cat}={st.stall_cycles[cat]!r};".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def build_record(plan, inp, backend, result, *, wall_s: float,
                 streamed: bool = False) -> dict:
    """One ledger line for a finished job (plain JSON-able dict)."""
    stats = [result.map_stats]
    if result.reduce_stats is not None and result.strategy is not None:
        stats.append(result.reduce_stats)
    hits = sum(st.analysis_cache_hits for st in stats)
    misses = sum(st.analysis_cache_misses for st in stats)
    lookups = hits + misses
    report = result.check_report
    straggler = result.straggler
    decision = getattr(plan, "tuned", None)
    tuner_choice = tuner_predicted = tuner_error = None
    if decision is not None:
        tuner_choice = decision.choice
        tuner_predicted = round(float(decision.predicted_cost), 6)
        # The relative prediction error — only when the decision's
        # objective matches the unit this run actually measured
        # (cycles on the sim backend, wall seconds elsewhere), so the
        # calibrator never mixes units.
        objective = getattr(decision, "objective", "cycles")
        actual = None
        if objective == "cycles" and backend.name == "sim":
            actual = result.timings.total
        elif objective == "wall" and backend.name != "sim":
            actual = wall_s
        if actual is not None and tuner_predicted and tuner_predicted > 0:
            tuner_error = round(actual / tuner_predicted - 1.0, 4)
    spilled = any("spill_runs" in st.extra for st in stats)
    columnar = any("columnar_batches" in st.extra
                   or "columnar_groups" in st.extra for st in stats)
    return {
        "schema": SCHEMA,
        "ts": round(time.time(), 3),
        "workload": plan.spec.name,
        "mode": plan.mode_label,
        "strategy": getattr(plan.strategy, "value", plan.strategy),
        "engine": plan.engine,
        "backend": backend.name,
        "workers": getattr(backend, "workers", None),
        "streamed": streamed,
        "records_in": len(inp),
        "input_digest": digest_input(inp),
        "output_records": len(result.output),
        "intermediate_records": result.intermediate_count,
        "sim_cycles": result.timings.total,
        "wall_s": round(wall_s, 6),
        "kernel_digest": kernel_digest(*stats),
        "analysis_cache_hit_rate": (
            round(hits / lookups, 4) if lookups else None
        ),
        "check_findings": (
            len(report.findings) if report is not None else None
        ),
        "straggler_skew": (
            round(straggler.max_skew, 3) if straggler is not None else None
        ),
        # Autotuner audit trail (schema 2): all null when the run was
        # not tuned, so fixed-config records stay comparable.
        "tuned": decision is not None,
        "tuner_choice": tuner_choice,
        "tuner_predicted_cost": tuner_predicted,
        "tuner_error": tuner_error,
        # Every knob not at its default: {name: [source, value]} —
        # bar the two that only say where this record is written.
        "config": plan.settings.non_default(("ledger", "ledger_dir")),
        # Intermediate-store policy: the requested choice (None means
        # "default/env"), plus spill accounting when the job actually
        # ran a spilling shuffle.
        "store": plan.settings.requested("store"),
        "spill_runs": (
            sum(st.extra.get("spill_runs", 0) for st in stats)
            if spilled else None
        ),
        "spilled_bytes": (
            sum(st.extra.get("spilled_bytes", 0) for st in stats)
            if spilled else None
        ),
        # Columnar execution accounting (None when the job ran the
        # scalar path): Map batch counts and how many of them — plus
        # the Reduce — actually took the vectorized kernels.
        "columnar_batches": (
            sum(st.extra.get("columnar_batches", 0) for st in stats)
            if columnar else None
        ),
        "columnar_map_vectorized": (
            sum(st.extra.get("columnar_map_vectorized", 0) for st in stats)
            if columnar else None
        ),
        "columnar_reduce_vectorized": (
            sum(st.extra.get("columnar_reduce_vectorized", 0)
                for st in stats)
            if columnar else None
        ),
    }


def append_record(record: dict, path: str | None = None) -> None:
    """Append one record as a single atomic line write.

    ``O_APPEND`` plus one ``os.write`` keeps concurrent appenders from
    interleaving within a line; any ``OSError`` (read-only tree, full
    disk) is swallowed — observability must never fail the job.
    """
    if path is None:
        path = ledger_path()
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
    except OSError:
        pass


def record_run(plan, inp, backend, result, *, wall_s: float,
               streamed: bool = False) -> None:
    """Gate on the ``ledger`` setting, then build and append one run
    record."""
    if not plan.settings["ledger"]:
        return
    try:
        record = build_record(plan, inp, backend, result, wall_s=wall_s,
                              streamed=streamed)
    except Exception:
        # A malformed result must not take the job down with it.
        return
    append_record(record, ledger_path(plan.settings))


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def read_ledger(path: str | None = None) -> list[dict]:
    """All parseable records, in file (= append) order.

    Malformed lines — a torn write from a crashed process, say — are
    skipped rather than fatal; an absent file reads as empty.
    """
    if path is None:
        path = ledger_path()
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if isinstance(doc, dict):
                    records.append(doc)
    except OSError:
        return []
    return records


def group_runs(records: Iterable[dict]) -> dict[tuple[str, str], list[dict]]:
    """Group records by ``(workload, backend)``, preserving order."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        key = (str(rec.get("workload")), str(rec.get("backend")))
        groups.setdefault(key, []).append(rec)
    return groups
