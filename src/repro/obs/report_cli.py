"""``repro-report`` — render the persistent run ledger.

Reads ``.repro/runs.jsonl`` (see :mod:`repro.obs.ledger`) and renders:

* **trajectory tables** per ``(workload, backend)`` — the most recent
  runs with wall seconds, simulated cycles, record counts and check
  findings, so performance over time is visible without re-running a
  benchmark;
* **regression flags** — the latest run of each group is compared
  against a rolling median of the previous comparable runs (same
  mode, strategy, input digest and streaming shape); a wall-clock
  increase beyond ``--threshold`` or *any* simulated-cycle drift is
  flagged (sim cycles are deterministic for a fixed input — drift
  means the timing model changed);
* **backend comparison** — for inputs that ran on more than one
  backend, median wall seconds side by side with speedups against the
  slowest;
* **tuner audit** (``--tuner``) — every autotuned run with the chosen
  configuration, the cost model's prediction, and the measured
  prediction error (``actual/predicted - 1``, recorded only when the
  prediction's unit matches what the run measured), plus the mean
  absolute error per workload — the calibration loop's report card.

Examples::

    repro-report
    repro-report --ledger /tmp/ci/.repro/runs.jsonl --last 5
    repro-report --workload wordcount --strict
    repro-report --tuner
    repro-report --json > report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .ledger import group_runs, ledger_path, read_ledger


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _comparable_key(rec: dict) -> tuple:
    """Runs that did the same work: same mode/strategy/input/shape."""
    return (rec.get("mode"), rec.get("strategy"),
            rec.get("input_digest"), rec.get("streamed"))


def _flag_regression(runs: list[dict], *, window: int,
                     threshold: float) -> dict | None:
    """Compare the group's latest run against its rolling baseline."""
    latest = runs[-1]
    prior = [r for r in runs[:-1]
             if _comparable_key(r) == _comparable_key(latest)]
    if not prior:
        return None
    baseline = prior[-window:]
    flags: list[str] = []
    base_wall = _median([r.get("wall_s", 0.0) or 0.0 for r in baseline])
    wall = latest.get("wall_s", 0.0) or 0.0
    ratio = (wall / base_wall) if base_wall else None
    if ratio is not None and ratio > 1.0 + threshold:
        flags.append(
            f"wall {wall:.4f}s vs rolling median {base_wall:.4f}s "
            f"({ratio - 1.0:+.0%})"
        )
    prev_cycles = baseline[-1].get("sim_cycles")
    cycles = latest.get("sim_cycles")
    if (isinstance(prev_cycles, (int, float))
            and isinstance(cycles, (int, float)) and prev_cycles):
        if abs(cycles - prev_cycles) / abs(prev_cycles) > 1e-9:
            flags.append(
                f"sim cycles drifted {prev_cycles:g} -> {cycles:g} "
                "(timing model changed?)"
            )
    if not flags:
        return None
    return {
        "baseline_runs": len(baseline),
        "baseline_wall_s": base_wall,
        "wall_s": wall,
        "wall_ratio": ratio,
        "flags": flags,
    }


def analyze(records: list[dict], *, window: int = 5,
            threshold: float = 0.25) -> dict:
    """Fold ledger records into the report's structured form."""
    groups = []
    for (workload, backend), runs in sorted(group_runs(records).items()):
        groups.append({
            "workload": workload,
            "backend": backend,
            "runs": runs,
            "regression": _flag_regression(runs, window=window,
                                           threshold=threshold),
        })

    # Backend comparison: the most recent comparable key per workload
    # that ran on more than one backend.
    by_workload: dict[str, list[dict]] = {}
    for rec in records:
        by_workload.setdefault(str(rec.get("workload")), []).append(rec)
    comparison = []
    for workload in sorted(by_workload):
        runs = by_workload[workload]
        backends_by_key: dict[tuple, dict[str, list[float]]] = {}
        for rec in runs:
            key = _comparable_key(rec)
            backends_by_key.setdefault(key, {}).setdefault(
                str(rec.get("backend")), []
            ).append(rec.get("wall_s", 0.0) or 0.0)
        multi = [(key, b) for key, b in backends_by_key.items()
                 if len(b) >= 2]
        if not multi:
            continue
        # Latest key wins: walk records backwards to find it.
        latest_key = next(
            key for key in (
                _comparable_key(rec) for rec in reversed(runs)
            ) if len(backends_by_key[key]) >= 2
        )
        walls = {name: _median(v[-5:])
                 for name, v in backends_by_key[latest_key].items()}
        slowest = max(walls.values())
        comparison.append({
            "workload": workload,
            "mode": latest_key[0],
            "strategy": latest_key[1],
            "backends": {
                name: {
                    "runs": len(backends_by_key[latest_key][name]),
                    "median_wall_s": wall,
                    "speedup_vs_slowest": (slowest / wall) if wall else None,
                }
                for name, wall in sorted(walls.items())
            },
        })
    return {
        "records": len(records),
        "groups": groups,
        "comparison": comparison,
        "window": window,
        "threshold": threshold,
    }


def analyze_tuner(records: list[dict]) -> dict:
    """Fold the ledger's autotuned runs into the ``--tuner`` report."""
    tuned = [r for r in records if r.get("tuned")]
    by_workload: dict[str, list[float]] = {}
    for rec in tuned:
        error = rec.get("tuner_error")
        if isinstance(error, (int, float)):
            by_workload.setdefault(str(rec.get("workload")), []).append(
                abs(float(error))
            )
    return {
        "tuned_runs": len(tuned),
        "runs": tuned,
        "mean_abs_error": {
            w: sum(errs) / len(errs) for w, errs in sorted(by_workload.items())
        },
    }


def render_tuner(tuner: dict, *, last: int = 20) -> str:
    """Console rendering of :func:`analyze_tuner`'s output."""
    if not tuner["tuned_runs"]:
        return ("no autotuned runs in the ledger — run with mode='auto', "
                "tune=True or $REPRO_AUTOTUNE=1 first")
    lines = [f"{tuner['tuned_runs']} autotuned run(s)", ""]
    lines.append(f"  {'when (UTC)':<19s} {'workload':<12s} {'backend':<9s} "
                 f"{'choice':<22s} {'predicted':>12s} {'error':>8s}")
    for rec in tuner["runs"][-last:]:
        error = rec.get("tuner_error")
        predicted = rec.get("tuner_predicted_cost")
        lines.append(
            f"  {_ts(rec):<19s} {str(rec.get('workload', '-')):<12s} "
            f"{str(rec.get('backend', '-')):<9s} "
            f"{str(rec.get('tuner_choice', '-')):<22s} "
            f"{(f'{predicted:.4g}' if isinstance(predicted, (int, float)) else '-'):>12s} "
            f"{(f'{error:+.1%}' if isinstance(error, (int, float)) else '-'):>8s}"
        )
    if tuner["mean_abs_error"]:
        lines.append("")
        lines.append("  mean |error| per workload "
                     "(prediction vs measurement, matched units):")
        for workload, mae in tuner["mean_abs_error"].items():
            lines.append(f"    {workload:<12s} {mae:.1%}")
    return "\n".join(lines)


def _ts(rec: dict) -> str:
    ts = rec.get("ts")
    if not isinstance(ts, (int, float)):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))


def _spill_cell(rec: dict) -> str:
    """Compact "runs/bytes" spill column (``-`` = no spilling ran)."""
    runs = rec.get("spill_runs")
    if not isinstance(runs, int):
        return "-"
    nbytes = rec.get("spilled_bytes") or 0
    if nbytes >= 2**20:
        human = f"{nbytes / 2**20:.1f}M"
    elif nbytes >= 2**10:
        human = f"{nbytes / 2**10:.0f}k"
    else:
        human = str(nbytes)
    return f"{runs}/{human}"


def render(analysis: dict, *, last: int = 8) -> str:
    """Console rendering of :func:`analyze`'s output."""
    lines: list[str] = []
    if not analysis["records"]:
        return "ledger is empty — run any job (or repro-trace) first"
    lines.append(f"{analysis['records']} ledger record(s)")
    for group in analysis["groups"]:
        runs = group["runs"]
        lines.append("")
        lines.append(f"== {group['workload']} · {group['backend']} "
                     f"({len(runs)} run(s)) ==")
        lines.append(f"  {'when (UTC)':<19s} {'mode':>5s} {'strat':>5s} "
                     f"{'records':>8s} {'cycles':>14s} {'wall_s':>9s} "
                     f"{'skew':>5s} {'chk':>3s} {'spill':>10s}")
        for rec in runs[-last:]:
            skew = rec.get("straggler_skew")
            findings = rec.get("check_findings")
            lines.append(
                f"  {_ts(rec):<19s} {str(rec.get('mode', '-')):>5s} "
                f"{str(rec.get('strategy') or '-'):>5s} "
                f"{rec.get('records_in', 0):>8d} "
                f"{rec.get('sim_cycles', 0.0):>14.0f} "
                f"{rec.get('wall_s', 0.0):>9.4f} "
                f"{(f'{skew:.2f}' if isinstance(skew, (int, float)) else '-'):>5s} "
                f"{(str(findings) if findings is not None else '-'):>3s} "
                f"{_spill_cell(rec):>10s}"
            )
        reg = group["regression"]
        if reg:
            for flag in reg["flags"]:
                lines.append(f"  REGRESSION: {flag}")
    if analysis["comparison"]:
        lines.append("")
        lines.append("== backend comparison (median wall_s, same input) ==")
        for comp in analysis["comparison"]:
            strategy = comp.get("strategy") or "-"
            lines.append(f"  {comp['workload']} "
                         f"[mode={comp.get('mode')}, strategy={strategy}]:")
            for name, row in comp["backends"].items():
                speed = row["speedup_vs_slowest"]
                lines.append(
                    f"    {name:<10s} {row['median_wall_s']:>9.4f}s  "
                    f"{(f'{speed:5.1f}x' if speed else '     -')}  "
                    f"({row['runs']} run(s))"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="repro-report", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--ledger", default=None,
                   help="ledger file (default: the active ledger, "
                        "honouring $REPRO_LEDGER_DIR)")
    p.add_argument("--last", type=int, default=8,
                   help="runs shown per trajectory table")
    p.add_argument("--window", type=int, default=5,
                   help="rolling-baseline window for regression flags")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="wall-clock regression threshold (0.25 = +25%%)")
    p.add_argument("--workload", default=None,
                   help="only this workload")
    p.add_argument("--backend", default=None,
                   help="only this backend")
    p.add_argument("--tuner", action="store_true",
                   help="report the autotuned runs instead: choice, "
                        "predicted cost and prediction error per run")
    p.add_argument("--json", action="store_true",
                   help="emit the structured report as JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any regression is flagged")
    args = p.parse_args(argv)

    path = args.ledger if args.ledger is not None else ledger_path()
    records = read_ledger(path)
    if args.workload:
        records = [r for r in records
                   if str(r.get("workload")).lower() == args.workload.lower()]
    if args.backend:
        records = [r for r in records
                   if str(r.get("backend")).lower() == args.backend.lower()]
    if args.tuner:
        tuner = analyze_tuner(records)
        tuner["ledger"] = path
        if args.json:
            print(json.dumps(tuner, sort_keys=True, indent=1))
        else:
            print(f"ledger: {path}")
            print(render_tuner(tuner, last=max(args.last, 20)))
        return 0
    analysis = analyze(records, window=args.window,
                       threshold=args.threshold)
    analysis["ledger"] = path
    if args.json:
        print(json.dumps(analysis, sort_keys=True, indent=1))
    else:
        print(f"ledger: {path}")
        print(render(analysis, last=args.last))
    if args.strict and any(g["regression"] for g in analysis["groups"]):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
