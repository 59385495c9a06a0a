"""CI perf-regression gate for the cycle-accurate simulator.

Re-runs the *small* benchmark cases and compares the measured
sim/fast CPU-time ratio against the committed baseline in
``BENCH_sim_opt.json``.  The ratio is the machine-neutral signal: both
backends run the same Python on the same runner, so a shared-runner
slowdown cancels out, while a hot-path regression in the simulator
(whose cost the fast backend does not share) shows up directly.

Fails (exit 1) when any case's ratio exceeds its baseline by more than
``--tolerance`` (default 25%).  Improvements never fail the gate;
regenerate the baseline with::

    PYTHONPATH=src python scripts/profile_sim.py --bench \\
        --out BENCH_sim_opt.json

When the run ledger (``.repro/runs.jsonl``, see ``repro.obs.ledger``)
holds sim *and* fast runs of a case's workload over the same input,
the rolling median of their wall-time ratio becomes that case's
baseline instead of the committed JSON — recent runs on *this* runner
beat a snapshot from whatever machine regenerated the file last.
The ledger baseline is the **primary** signal and gets the sharp
``--tolerance``; when a case has no ledger history the committed
``BENCH_sim_opt.json`` ratio is only a *cross-machine* fallback, so
it gets the wider ``--bench-tolerance`` (sim/fast ratios swing tens
of percent between CPU generations and Python builds even with an
identical tree — a same-machine drift bound on a foreign snapshot
produces false failures, observed as ratio 27.5 vs limit 24.3 on an
unmodified seed tree).

The gate also holds the columnar fast path to its acceptance bars:
the fast/columnar CPU-time ratio on small kmeans must stay at or
above ``--columnar-floor`` (default 5, the bar from
``BENCH_columnar.json``), and on small wordcount — ragged keys,
hash-grouped in the shuffle — at or above 1: columnar is never slower
than scalar.  Like sim/fast, the ratio is machine neutral — both
paths run the same Python on the same runner — so a regression in
the batch kernels or the array shuffle (whose cost the scalar path
does not share) shows up directly.

Finally the gate re-checks the committed autotuner benchmark
(``BENCH_autotune.json``, regenerated with ``repro-bench autotune``):
every tuned case must sit within its per-case bar of the best measured
fixed configuration, and the tuned total must beat every fixed
single-mode policy.  This is a pure artefact check (no re-measurement
— the benchmark is deterministic simulated cycles), so a stale or
hand-edited artefact fails loudly.

Usage::

    PYTHONPATH=src python scripts/perf_gate.py [--repeats 3]
        [--tolerance 0.25] [--bench-tolerance 0.75]
        [--baseline BENCH_sim_opt.json]
        [--ledger .repro/runs.jsonl | --no-ledger]
        [--columnar-floor 5.0 | --no-columnar]
        [--autotune-baseline BENCH_autotune.json | --no-autotune]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from profile_sim import _measure_tree  # noqa: E402

#: Minimum fast/columnar CPU-time ratio on small wordcount: the
#: columnar path must never lose to scalar on ragged keys.
WORDCOUNT_COLUMNAR_FLOOR = 1.0


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _ledger_ratios(path: str) -> dict[str, float]:
    """Per-workload sim/fast wall ratio from the run ledger.

    Only runs of the *same input* (matching ``input_digest``) are
    compared; each digest group contributes the ratio of its median
    sim wall time to its median fast wall time, and a workload's
    baseline is the median over its groups.
    """
    from repro.obs.ledger import read_ledger

    by_input: dict[tuple, dict[str, list[float]]] = {}
    for rec in read_ledger(path):
        backend = rec.get("backend")
        wall = rec.get("wall_s")
        if backend not in ("sim", "fast") or not wall:
            continue
        key = (rec.get("workload"), rec.get("input_digest"),
               rec.get("mode"), rec.get("strategy"))
        by_input.setdefault(key, {}).setdefault(backend, []).append(wall)
    ratios: dict[str, list[float]] = {}
    for (workload, _digest, _mode, _strategy), sides in by_input.items():
        if sides.get("sim") and sides.get("fast"):
            ratios.setdefault(str(workload), []).append(
                _median(sides["sim"]) / _median(sides["fast"])
            )
    return {w: _median(rs) for w, rs in ratios.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--baseline", default=os.path.join(_ROOT, "BENCH_sim_opt.json"))
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed relative ratio increase over a "
                        "same-machine ledger baseline (0.25 = 25%%)")
    p.add_argument("--bench-tolerance", type=float, default=0.75,
                   help="allowed relative ratio increase over the "
                        "committed cross-machine baseline, used only "
                        "when a case has no ledger history (wider: the "
                        "snapshot was measured on a different machine)")
    p.add_argument("--ledger",
                   default=os.path.join(_ROOT, ".repro", "runs.jsonl"),
                   help="run ledger to derive per-workload baselines "
                        "from (falls back to --baseline per case)")
    p.add_argument("--no-ledger", action="store_true",
                   help="ignore the ledger; use the committed baseline "
                        "only")
    p.add_argument("--columnar-floor", type=float, default=5.0,
                   help="minimum fast/columnar CPU-time ratio on small "
                        "kmeans (the columnar acceptance bar)")
    p.add_argument("--no-columnar", action="store_true",
                   help="skip the columnar-over-fast checks")
    p.add_argument("--autotune-baseline",
                   default=os.path.join(_ROOT, "BENCH_autotune.json"),
                   help="committed autotuner benchmark artefact to "
                        "gate-check")
    p.add_argument("--no-autotune", action="store_true",
                   help="skip the autotuner gate check")
    args = p.parse_args(argv)

    with open(args.baseline) as f:
        doc = json.load(f)
    cases = [r for r in doc["results"] if r["size"] == "small"]
    if not cases:
        print("perf-gate: no small cases in baseline", file=sys.stderr)
        return 2

    ledger_base = {} if args.no_ledger else _ledger_ratios(args.ledger)
    failed = False
    for row in cases:
        workload, size = row["workload"], row["size"]
        _, sim_cpu = _measure_tree(_ROOT, workload, size, args.repeats, "sim")
        _, fast_cpu = _measure_tree(_ROOT, workload, size, args.repeats, "fast")
        ratio = sim_cpu / fast_cpu
        if workload in ledger_base:
            base, source = ledger_base[workload], "ledger"
            tolerance = args.tolerance
        else:
            base, source = row["sim_over_fast"], "bench"
            tolerance = args.bench_tolerance
        limit = base * (1.0 + tolerance)
        verdict = "FAIL" if ratio > limit else "ok"
        print(f"{workload}-{size}: sim {sim_cpu:.3f}s-cpu fast "
              f"{fast_cpu:.3f}s-cpu ratio {ratio:.1f} "
              f"(baseline {base:.1f} [{source}], limit {limit:.1f}) "
              f"{verdict}")
        if ratio > limit:
            failed = True

    if not args.no_columnar:
        for workload, floor in (("kmeans", args.columnar_floor),
                                ("wordcount", WORDCOUNT_COLUMNAR_FLOOR)):
            _, fast_cpu = _measure_tree(_ROOT, workload, "small",
                                        args.repeats, "fast")
            _, col_cpu = _measure_tree(_ROOT, workload, "small",
                                       args.repeats, "columnar")
            speedup = fast_cpu / col_cpu
            verdict = "FAIL" if speedup < floor else "ok"
            print(f"{workload}-small: fast {fast_cpu:.3f}s-cpu columnar "
                  f"{col_cpu:.3f}s-cpu speedup {speedup:.1f}x "
                  f"(floor {floor:.1f}x) {verdict}")
            if speedup < floor:
                print("perf-gate: columnar fast path regressed below its "
                      "acceptance bar; see BENCH_columnar.json for the "
                      "committed reference numbers.", file=sys.stderr)
                failed = True

    if not args.no_autotune:
        from repro.tune.bench import check_report

        try:
            with open(args.autotune_baseline) as f:
                autotune_doc = json.load(f)
        except OSError as exc:
            print(f"perf-gate: autotune artefact unreadable: {exc}",
                  file=sys.stderr)
            failed = True
        else:
            problems = check_report(autotune_doc)
            ncases = len(autotune_doc.get("cases", []))
            verdict = "FAIL" if problems else "ok"
            print(f"autotune: {ncases} cases, gates "
                  f"{autotune_doc.get('gates')} {verdict}")
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            if problems:
                print("perf-gate: the autotuner's committed benchmark no "
                      "longer passes its gates; regenerate with\n"
                      "  PYTHONPATH=src python -m repro.analysis.cli "
                      "autotune\nand investigate the cost model if the "
                      "fresh run still fails.", file=sys.stderr)
                failed = True

    if failed:
        print("perf-gate: simulator hot path regressed; profile with\n"
              "  PYTHONPATH=src python scripts/profile_sim.py --profile\n"
              "or, if the slowdown is intended, regenerate "
              "BENCH_sim_opt.json.", file=sys.stderr)
        return 1
    print("perf-gate: all ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
