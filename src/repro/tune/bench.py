"""``repro-bench autotune`` — the tuner's acceptance benchmark.

Runs a workload matrix (the five synthetic tuner shapes plus the
shipped WC / KM / HG / LR workloads) twice over:

* **tuned** — one ``mode="auto"`` run per case with a *fresh, empty*
  ledger, so the decision comes from the cost model alone (no history
  echo from the sweep below);
* **fixed sweep** — every legal (mode, strategy, block size)
  combination, measured.

From those it derives the two acceptance gates this repo commits to
in ``BENCH_autotune.json`` (checked by ``scripts/perf_gate.py``):

1. **per-case**: each tuned run costs at most ``PER_CASE_BAR`` (1.10)
   times the best *measured* fixed configuration of that case;
2. **totals**: summed over the matrix, the tuned policy is cheaper
   than *every* fixed single-mode policy (run everything in G, in GT,
   … at the default block size) — the "one mode fits all" strawman
   the paper's per-workload mode tables argue against.

Costs are simulated cycles on a fixed small device: deterministic,
machine-neutral, and exactly the objective the tuner optimises.
"""

from __future__ import annotations

import json
import tempfile

from ..config import override
from ..framework.job import run_job
from ..framework.modes import ALL_MODES, MemoryMode, ReduceStrategy
from ..gpu.config import DeviceConfig
from ..workloads import Histogram, KMeans, LinearRegression, WordCount
from .synthetic import SYNTHETIC_CASES, synthetic_case

#: Per-case acceptance bar: tuned cost / best measured fixed cost.
PER_CASE_BAR = 1.10

#: Block sizes the fixed sweep measures (the tuner's own candidates).
SWEEP_TPBS = (64, 128, 256)

#: Default artefact path (committed at the repo root).
DEFAULT_OUT = "BENCH_autotune.json"

#: Real workloads in the matrix, with a scale that keeps one full
#: sweep in CI-friendly time on the small device.
_REAL = (
    (WordCount, 0.4),
    (KMeans, 0.4),
    (Histogram, 0.4),
    (LinearRegression, 0.4),
)


def bench_cases(seed: int = 0):
    """Yield ``(name, spec, inp, has_reduce)`` for the matrix."""
    for name in SYNTHETIC_CASES:
        spec, inp = synthetic_case(name, seed=seed)
        yield name, spec, inp, True
    for cls, scale in _REAL:
        w = cls()
        inp = w.generate("small", seed=seed, scale=scale)
        spec = w.spec_for_size("small", seed=seed, scale=scale)
        yield w.code, spec, inp, w.has_reduce


def _strategies(has_reduce):
    return (ReduceStrategy.TR, ReduceStrategy.BR) if has_reduce else (None,)


def run_autotune_bench(
    *,
    seed: int = 0,
    mps: int = 4,
    out_path: str | None = DEFAULT_OUT,
    progress=None,
) -> dict:
    """Measure the matrix and return (and optionally write) the report."""
    config = DeviceConfig.small(mps)
    cases = list(bench_cases(seed))
    report_cases = []
    fixed_policy_totals: dict[str, float] = {m.value: 0.0 for m in ALL_MODES}
    tuned_total = 0.0
    per_case_ok = True

    for name, spec, inp, has_reduce in cases:
        # Each case's tuned run gets its own empty ledger, so the
        # decision under test is the factory cost model's — not
        # calibration echo from earlier cases or history override from
        # the fixed sweep's records.  This is also what makes the
        # artefact reproducible: the same tree produces the same
        # BENCH_autotune.json whatever the local ledger holds.
        ledger_dir = tempfile.mkdtemp(prefix="repro-tune-bench-")
        with override(ledger_dir=ledger_dir):
            if progress:
                progress(f"case {name}: tuned run")
            tuned = run_job(
                spec, inp, mode="auto",
                strategy="auto" if has_reduce else None, config=config,
            )
            tuned_cycles = tuned.timings.total
            tuned_total += tuned_cycles

            fixed: dict[str, float] = {}
            for strat in _strategies(has_reduce):
                for mode in ALL_MODES:
                    if strat is ReduceStrategy.BR \
                            and mode is MemoryMode.GT:
                        continue
                    for tpb in SWEEP_TPBS:
                        label = (f"{mode.value}/"
                                 f"{strat.value if strat else '-'}@{tpb}")
                        if progress:
                            progress(f"case {name}: fixed {label}")
                        res = run_job(spec, inp, mode=mode, strategy=strat,
                                      config=config, threads_per_block=tpb)
                        fixed[label] = res.timings.total
                        if tpb == 128:
                            # The single-mode policies run everything
                            # at the default block size; reduce cases
                            # contribute their TR cost (the classic
                            # one-thread-per-key default).
                            if strat in (None, ReduceStrategy.TR):
                                fixed_policy_totals[mode.value] += \
                                    res.timings.total

            best_label = min(fixed, key=fixed.get)
            ratio = tuned_cycles / fixed[best_label]
            per_case_ok = per_case_ok and ratio <= PER_CASE_BAR
            extra = tuned.map_stats.extra
            report_cases.append({
                "case": name,
                "records": len(inp),
                "tuned_choice": extra.get("tuner_choice"),
                "tuner_source": extra.get("tuner_source"),
                "tuned_cycles": round(tuned_cycles, 1),
                "predicted_cycles": round(
                    float(extra.get("tuner_predicted_cost") or 0.0), 1),
                "best_fixed": best_label,
                "best_fixed_cycles": round(fixed[best_label], 1),
                "ratio_to_best": round(ratio, 4),
                "fixed": {k: round(v, 1) for k, v in sorted(fixed.items())},
            })

    beats_every_mode = all(
        tuned_total < total for total in fixed_policy_totals.values()
    )
    report = {
        "schema": 1,
        "seed": seed,
        "device": f"small({mps})",
        "per_case_bar": PER_CASE_BAR,
        "cases": report_cases,
        "totals": {
            "tuned": round(tuned_total, 1),
            "fixed_modes": {
                k: round(v, 1) for k, v in fixed_policy_totals.items()
            },
        },
        "gates": {
            "per_case_within_bar": per_case_ok,
            "tuned_beats_every_fixed_mode": beats_every_mode,
        },
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def check_report(report: dict) -> list[str]:
    """Gate failures in a report (empty = all gates pass)."""
    problems = []
    gates = report.get("gates", {})
    if not gates.get("per_case_within_bar"):
        bar = report.get("per_case_bar", PER_CASE_BAR)
        for case in report.get("cases", []):
            if case.get("ratio_to_best", 0) > bar:
                problems.append(
                    f"case {case['case']}: tuned {case['tuned_choice']} is "
                    f"{case['ratio_to_best']:.3f}x the best fixed config "
                    f"{case['best_fixed']} (bar {bar})"
                )
    if not gates.get("tuned_beats_every_fixed_mode"):
        totals = report.get("totals", {})
        tuned = totals.get("tuned")
        for mode, total in sorted(totals.get("fixed_modes", {}).items()):
            if tuned is not None and total <= tuned:
                problems.append(
                    f"fixed mode {mode} total {total} <= tuned {tuned}"
                )
    return problems


def render_report(report: dict) -> str:
    lines = ["autotune benchmark (cycles, tuned vs fixed sweep)", ""]
    lines.append(f"{'case':14s} {'tuned choice':16s} {'tuned':>12s} "
                 f"{'best fixed':>16s} {'ratio':>7s}")
    for case in report.get("cases", []):
        lines.append(
            f"{case['case']:14s} {str(case['tuned_choice']):16s} "
            f"{case['tuned_cycles']:>12.0f} "
            f"{case['best_fixed']:>9s} {case['best_fixed_cycles']:>6.0f} "
            f"{case['ratio_to_best']:>7.3f}"
        )
    totals = report.get("totals", {})
    lines.append("")
    lines.append(f"tuned total : {totals.get('tuned'):.0f}")
    for mode, total in sorted(totals.get("fixed_modes", {}).items()):
        lines.append(f"fixed {mode:4s}  : {total:.0f}")
    problems = check_report(report)
    lines.append("")
    if problems:
        lines.append("GATES FAILED:")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append("gates: per-case <= "
                     f"{report.get('per_case_bar')}x best fixed; tuned "
                     "total beats every fixed mode  [OK]")
    return "\n".join(lines)
