"""``repro-bench`` — command-line runner for the paper's experiments.

Examples::

    repro-bench table2
    repro-bench fig5-map --workload WC --size medium
    repro-bench fig6 --workload KM
    repro-bench fig7
    repro-bench fig8 --workload II
    repro-bench validate                # oracle conformance matrix
    repro-bench validate --mode auto    # tuner's pick vs the oracle
    repro-bench autotune                # tuned-vs-fixed benchmark + gates
    repro-bench profile --workload WC   # per-mode derived metrics
    repro-bench all --size small
    repro-bench table2 --profile        # host-side cProfile of the run
    repro-bench fig7 --profile fig7.pstats --profile-top 30

All experiments run on the full simulated GTX 280 unless ``--mps``
shrinks the device for speed.

``--profile`` wraps any command in :mod:`cProfile` and prints the
hottest host functions (the ``profile`` *command*, by contrast,
reports simulated per-mode metrics).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import sys

from ..config import add_flags, cli_settings
from ..framework.modes import ReduceStrategy, resolve_mode_name
from ..gpu.config import DeviceConfig
from ..workloads import (
    ALL_WORKLOADS,
    Histogram,
    InvertedIndex,
    KMeans,
    LinearRegression,
    MatrixMultiplication,
    SimilarityScore,
    StringMatch,
    WordCount,
)
from . import figures, report, tables
from .metrics import compare_modes, derive_metrics
from .validation import validate_all

_BY_CODE = {
    "WC": WordCount,
    "MM": MatrixMultiplication,
    "SM": StringMatch,
    "II": InvertedIndex,
    "KM": KMeans,
    # Extras beyond Table I (Mars/Phoenix suites).
    "SS": SimilarityScore,
    "HG": Histogram,
    "LR": LinearRegression,
}


def _workloads(arg: str | None):
    if arg is None:
        return [cls() for cls in ALL_WORKLOADS]
    out = []
    for code in arg.split(","):
        cls = _BY_CODE.get(code.strip().upper())
        if cls is None:
            known = ", ".join(_BY_CODE)
            print(f"repro-bench: unknown workload code {code.strip()!r}; "
                  f"known codes: {known}", file=sys.stderr)
            raise SystemExit(2)
        out.append(cls())
    return out


def _config(args) -> DeviceConfig:
    if args.mps:
        return DeviceConfig.small(args.mps)
    return DeviceConfig.gtx280()


def cmd_table1(args) -> None:
    print(report.render_table1(tables.table1(_workloads(args.workload))))


def cmd_table2(args) -> None:
    rows = [
        tables.measure_table2_row(w, args.size, scale=args.scale)
        for w in _workloads(args.workload)
    ]
    print(report.render_table2(rows))


def cmd_fig5_map(args) -> None:
    for w in _workloads(args.workload):
        res = figures.fig5_map_sweep(
            w, size=args.size, config=_config(args), scale=args.scale
        )
        print(report.render_map_sweep(res))
        print()


def cmd_fig5_reduce(args) -> None:
    for w in _workloads(args.workload or "WC,KM"):
        if not w.has_reduce:
            continue
        for strat in (ReduceStrategy.TR, ReduceStrategy.BR):
            res = figures.fig5_reduce_sweep(
                w, strat, size=args.size, config=_config(args), scale=args.scale
            )
            print(report.render_reduce_sweep(res))
            print()


def cmd_fig6(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig6_end_to_end(
            w, sizes=(args.size,), config=_config(args), scale=args.scale
        )
    print(report.render_end_to_end(rows))


def cmd_fig7(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig7_speedup_over_mars(
            w, size=args.size, config=_config(args), scale=args.scale
        )
    print(report.render_speedups(rows))


def cmd_fig8(args) -> None:
    rows = []
    for w in _workloads(args.workload):
        rows += figures.fig8_yield_sweep(
            w, size=args.size, config=_config(args), scale=args.scale
        )
    print(report.render_yield(rows))


def cmd_validate(args) -> None:
    # Backend, workers and store come from the flags and the env
    # (repro.config), in force for every job the command runs.
    rep = validate_all(
        _workloads(args.workload), size=args.size, scale=args.scale,
        config=_config(args) if args.mps else None, mode=args.mode,
    )
    print(rep.render())
    if not rep.passed:
        raise SystemExit(1)


def cmd_autotune(args) -> None:
    from ..tune.bench import check_report, render_report, run_autotune_bench

    report = run_autotune_bench(
        mps=args.mps or 4,
        out_path=args.out,
        progress=(lambda msg: print(f"  {msg}", file=sys.stderr))
        if args.verbose else None,
    )
    print(render_report(report))
    if args.out:
        print(f"\nwrote {args.out}")
    if check_report(report):
        raise SystemExit(1)


def cmd_profile(args) -> None:
    from ..framework.modes import ALL_MODES

    cfg = _config(args)
    for w in _workloads(args.workload):
        metrics = {}
        for mode in ALL_MODES:
            try:
                st = figures.run_map_kernel(
                    w, mode, size=args.size, scale=args.scale, config=cfg
                )
            except Exception:
                continue
            metrics[mode.value] = derive_metrics(st, cfg)
        print(f"{w.title} Map-kernel profile ({args.size}):")
        print(compare_modes(metrics))
        print()


def cmd_all(args) -> None:
    cmd_table1(args)
    print()
    cmd_table2(args)
    print()
    cmd_fig5_map(args)
    cmd_fig5_reduce(args)
    cmd_fig6(args)
    print()
    cmd_fig7(args)
    print()
    cmd_fig8(args)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    p.add_argument("command", choices=[
        "table1", "table2", "fig5-map", "fig5-reduce", "fig6", "fig7",
        "fig8", "validate", "profile", "autotune", "all",
    ])
    p.add_argument("--workload",
                   help="comma-separated codes (WC,MM,SM,II,KM,SS,HG,LR)")
    p.add_argument("--mode", default=None, metavar="MODE",
                   help="restrict 'validate' to one memory mode "
                        "(G/GT/SI/SO/SIO, or 'auto' for the cost-model "
                        "tuner); default runs the full matrix")
    p.add_argument("--out", default="BENCH_autotune.json", metavar="FILE",
                   help="artefact path for the 'autotune' command "
                        "(empty string to skip writing)")
    p.add_argument("--verbose", action="store_true",
                   help="progress lines on stderr for the 'autotune' "
                        "command")
    p.add_argument("--size", default="small", choices=["small", "medium", "large"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply problem sizes (1.0 = scaled defaults)")
    p.add_argument("--mps", type=int, default=0,
                   help="simulate this many MPs instead of the full 30")
    # The knob table's flags (repro.config).  --check (strict: the
    # first finding aborts the command with a CheckError) applies to
    # every command, the others to 'validate' only.
    add_flags(p, check="strict")
    p.add_argument("--profile", nargs="?", const="repro-bench.pstats",
                   default=None, metavar="FILE",
                   help="run the command under cProfile: write pstats "
                        "to FILE (default repro-bench.pstats) and "
                        "print the hottest functions")
    p.add_argument("--profile-top", type=int, default=20, metavar="N",
                   help="number of hot functions to list with --profile")
    args = p.parse_args(argv)
    if args.mode is not None and args.command != "validate":
        print("repro-bench: --mode only applies to 'validate' (the "
              "'autotune' command benchmarks the tuner itself)",
              file=sys.stderr)
        return 2
    if args.command != "validate" and any(
            getattr(args, name) is not None
            for name in ("backend", "store", "memory_budget")):
        print("repro-bench: --backend/--store/--memory-budget "
              "only apply to 'validate' — every timing command needs "
              "the cycle-accurate simulator", file=sys.stderr)
        return 2
    with cli_settings("repro-bench", args):
        if args.mode is not None:
            args.mode = resolve_mode_name(args.mode, allow_auto=True)
        return _run(args)


def _run(args) -> int:
    cmd = {
        "table1": cmd_table1,
        "table2": cmd_table2,
        "fig5-map": cmd_fig5_map,
        "fig5-reduce": cmd_fig5_reduce,
        "fig6": cmd_fig6,
        "fig7": cmd_fig7,
        "fig8": cmd_fig8,
        "validate": cmd_validate,
        "profile": cmd_profile,
        "autotune": cmd_autotune,
        "all": cmd_all,
    }[args.command]
    if args.profile is None:
        cmd(args)
        return 0
    # Wall-clock profiling of the command itself (where does the
    # *simulator* spend host time — not simulated cycles; those are
    # what the 'profile' command reports).
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        cmd(args)
    finally:
        prof.disable()
        prof.dump_stats(args.profile)
        st = pstats.Stats(prof, stream=sys.stdout)
        print(f"\n--- hottest {args.profile_top} functions "
              f"(cumulative; full dump: {args.profile}) ---")
        st.sort_stats("cumulative").print_stats(args.profile_top)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
