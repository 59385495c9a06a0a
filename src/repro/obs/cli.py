"""``repro-trace`` — run a workload under full tracing and export.

Runs any named workload under any memory mode / reduce strategy with
the :mod:`repro.obs` tracer attached, then writes three artefacts into
``--out`` (default ``trace_out/``):

* ``trace.json``   — Chrome/Perfetto ``trace_event`` JSON (open at
  https://ui.perfetto.dev): job -> phase -> kernel spans on the host
  track, per-warp activity and flush/poll events on device tracks;
* ``events.jsonl`` — the same record, one JSON object per line;
* ``metrics.json`` — the job's full metrics registry, byte-stable for
  a fixed seed (the perf-regression baseline format).

Examples::

    repro-trace wordcount --mode SIO --strategy TR
    repro-trace WC --mode G --size medium --mps 4
    repro-trace kmeans --mars --out /tmp/km_mars
    repro-trace wordcount --baseline old/metrics.json --tolerance 0.02
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..config import SHARDED_BACKENDS, add_flags, cli_settings
from ..errors import FrameworkError
from ..framework.job import run_job
from ..framework.modes import MemoryMode, ReduceStrategy, \
    resolve_mode_name, resolve_strategy_name
from ..gpu.config import DeviceConfig
from ..workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, Workload
from .exporters import write_check_json, write_chrome_trace, write_jsonl
from .metrics import diff_metrics, job_metrics_registry
from .report import render_job_profile, render_span_tree
from .tracer import Tracer


def _workload_index() -> dict[str, type[Workload]]:
    index: dict[str, type[Workload]] = {}
    for cls in (*ALL_WORKLOADS, *EXTRA_WORKLOADS):
        index[cls.code.lower()] = cls
        index[cls.__name__.lower()] = cls
        index[cls.title.lower().replace(" ", "")] = cls
    return index


def resolve_workload(name: str) -> Workload:
    """Accepts a code (``WC``), class name or title (``wordcount``).

    Unknown names print the known codes to stderr and exit 2 (the
    argparse convention for bad usage) instead of a traceback.
    """
    index = _workload_index()
    key = name.lower().replace(" ", "").replace("-", "").replace("_", "")
    if key not in index:
        known = sorted({cls.code for cls in index.values()})
        print(
            f"repro-trace: unknown workload {name!r}; "
            f"known codes: {', '.join(known)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return index[key]()


def _parse_blocks(arg: str) -> set[int] | None:
    if arg == "all":
        return None
    if arg in ("none", ""):
        return set()
    try:
        return {int(b) for b in arg.split(",")}
    except ValueError:
        print(
            f"repro-trace: --blocks expects a comma-separated list of "
            f"block ids, 'all' or 'none'; got {arg!r}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="repro-trace", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workload",
                   help="workload code or name (WC, wordcount, kmeans, ...)")
    p.add_argument("--mode", default=None,
                   help="memory mode (G, GT, SI, SO, SIO; default SIO, "
                        "or auto under $REPRO_AUTOTUNE) or 'auto' to let "
                        "the cost-model tuner pick")
    p.add_argument("--strategy", default="auto",
                   help="reduce strategy (TR, BR, none); 'auto' = TR "
                        "when the workload has a Reduce phase (default) "
                        "— or, under --mode auto, whichever the tuner "
                        "predicts faster")
    p.add_argument("--reduce-mode", default=None,
                   choices=[m.value for m in MemoryMode],
                   help="memory mode for the Reduce phase (default: same as Map)")
    p.add_argument("--size", default="small",
                   choices=["small", "medium", "large"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mps", type=int, default=0,
                   help="simulate this many MPs instead of the full 30")
    p.add_argument("--threads-per-block", type=int, default=None,
                   help="block size (default 128; under --mode auto an "
                        "explicit value pins it, otherwise the tuner "
                        "picks one)")
    p.add_argument("--shuffle", default="sort",
                   choices=["sort", "hash", "bitonic"])
    p.add_argument("--mars", action="store_true",
                   help="run the Mars two-pass baseline instead (takes "
                        "no --mode)")
    # The knob table's flags (repro.config).  --check runs the
    # sanitizer in report mode, writes check.json and exits 1 on any
    # finding (sim backend only).
    add_flags(p, check="report")
    p.add_argument("--blocks", default="0",
                   help="blocks to trace at warp level: comma list, "
                        "'all', or 'none' (default: block 0)")
    p.add_argument("--out", default="trace_out",
                   help="output directory (created if missing)")
    p.add_argument("--baseline",
                   help="previous metrics.json to diff against")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative change tolerated by --baseline diffing")
    p.add_argument("--quiet", action="store_true",
                   help="write files only, skip the console report")
    args = p.parse_args(argv)

    workload = resolve_workload(args.workload)
    with cli_settings("repro-trace", args) as settings:
        return _run(args, workload, settings)


def _run(args, workload: Workload, settings) -> int:
    # Mode/strategy names validate in exactly one place
    # (repro.framework.modes); a FrameworkError exits 2 with its
    # message (cli_settings).
    mode = resolve_mode_name(args.mode, allow_auto=True) \
        if args.mode is not None else None
    strategy = resolve_strategy_name(args.strategy, allow_auto=True)
    if args.mars and mode is not None:
        raise FrameworkError("--mars runs the Mars baseline's own "
                             "two-pass scheme; it takes no --mode")
    if mode is None:
        mode = "auto" if settings["autotune"] and not args.mars \
            else MemoryMode.SIO
    if strategy == "auto" and (mode != "auto" or args.mars):
        # The historical CLI meaning of 'auto': TR when the workload
        # reduces.  Under mode='auto' it stays 'auto' — the tuner's
        # TR-vs-BR choice, which is output-identical either way.
        strategy = ReduceStrategy.TR if workload.has_reduce else None
    config = DeviceConfig.small(args.mps) if args.mps else DeviceConfig.gtx280()
    inp = workload.generate(args.size, seed=args.seed, scale=args.scale)
    spec = workload.spec_for_size(args.size, seed=args.seed, scale=args.scale)

    backend = None  # the job takes the backend setting
    base, _, count = settings["backend"].partition(":")
    if base in SHARDED_BACKENDS and settings.source("backend") == "flag":
        from ..backend import BACKENDS

        # A --backend parallel/dist flag asks for a traced sharded run:
        # min_records=0 makes it cross the process boundary, where the
        # in-process fallback would yield no worker telemetry.
        backend = BACKENDS[base](
            workers=int(count) if count else settings["workers"],
            min_records=0)

    blocks = _parse_blocks(args.blocks)
    # The fast and parallel backends report zero kernel cycles, so the
    # sim clock alone would render a flat timeline — capture wall
    # stamps alongside (the sim backend stays on its deterministic
    # single clock, keeping golden traces byte-identical).
    tracer = Tracer(kernel_detail=blocks is None or bool(blocks),
                    trace_blocks=blocks,
                    wall_clock=base != "sim")
    if args.mars:
        from ..mars.framework import run_mars_job

        result = run_mars_job(
            spec, inp, strategy=strategy, config=config,
            threads_per_block=args.threads_per_block or 128, tracer=tracer,
            backend=backend,
        )
    else:
        result = run_job(
            spec, inp, mode=mode, reduce_mode=args.reduce_mode,
            strategy=strategy, config=config,
            threads_per_block=args.threads_per_block,
            shuffle_method=args.shuffle, tracer=tracer,
            backend=backend, tune=False,
        )

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    jsonl_path = os.path.join(args.out, "events.jsonl")
    metrics_path = os.path.join(args.out, "metrics.json")
    write_chrome_trace(tracer, trace_path)
    write_jsonl(tracer, jsonl_path)
    registry = job_metrics_registry(result, config)
    header = {
        "workload": workload.code,
        "backend": settings["backend"],
        # Under --mode auto the *resolved* mode/strategy land here, so
        # two metrics files only diff clean when the tuner agreed.
        "mode": "Mars" if args.mars
        else getattr(result.mode, "value", str(result.mode)),
        "strategy": getattr(result.strategy, "value", result.strategy),
        "size": args.size,
        "seed": args.seed,
        "scale": args.scale,
        "mps": args.mps or config.mp_count,
    }
    tuner_choice = result.map_stats.extra.get("tuner_choice")
    if tuner_choice is not None:
        header["tuner_choice"] = tuner_choice
        header["tuner_predicted_cost"] = result.map_stats.extra.get(
            "tuner_predicted_cost")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(registry.to_json(extra=header))

    check_failed = False
    if args.check:
        report = result.check_report
        if report is None:
            print("repro-trace: --check needs the sim backend; no "
                  "report produced", file=sys.stderr)
        else:
            check_path = os.path.join(args.out, "check.json")
            write_check_json(report, check_path)
            if not args.quiet:
                print(report.render())
                print(f"check   : {check_path}")
            check_failed = not report.ok

    if not args.quiet:
        print(render_job_profile(result, config))
        if result.straggler is not None:
            print()
            print(result.straggler.render())
        print()
        print("span tree:")
        print(render_span_tree(tracer))
        print()
        print(f"trace   : {trace_path}")
        print(f"events  : {jsonl_path}")
        print(f"metrics : {metrics_path}")

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        with open(metrics_path, encoding="utf-8") as fh:
            current = json.load(fh)
        deltas = diff_metrics(baseline, current, rel_tol=args.tolerance)
        if deltas:
            print(f"\n{len(deltas)} metric(s) changed beyond "
                  f"tolerance {args.tolerance:g}:")
            for d in deltas:
                print("  " + d.render())
            return 1
        print("\nno metric changes beyond tolerance "
              f"{args.tolerance:g} vs {args.baseline}")
    return 1 if check_failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
