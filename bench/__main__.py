"""Outside-in MapReduce benchmark.

    python -m bench --seed 0
    python -m bench --workload wc-dist --seed 3 --seconds 15 --trace 0

Without ``--workload`` every workload runs; without ``--trace`` each
runs untraced (end-to-end metrics) and then traced (per-layer
metrics).  Each run is a fresh worker process (``bench/worker.py``);
an untraced run also starts two set-up-only workers, and ``setup_s``
is the median of the three.  Human-readable lines come first; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full results, with the environment,
go to ``bench/_out/`` together with one Chrome trace per traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
#: Set-up is measured this many times per untraced run.
SETUP_SAMPLES = 3
#: Wall-clock limit of one workload run, every process included.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """A run produced no valid result."""


def _git_rev() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _reap_group(pgid: int) -> int:
    """Kill what is left of a worker's process group; 1 if anything was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return 0
    for _ in range(100):
        time.sleep(0.05)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
    return 1


def _spawn(workload: str, args: list[str], deadline: float) -> dict:
    """Run one worker hermetically and return its result document.

    The worker sees no ``REPRO_*`` variable from this environment, a
    fresh ledger directory and its own ``TMPDIR``.  Processes left in
    its process group and files left in its ``TMPDIR`` count as failed.
    """
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT))
    try:
        tmp = run_dir / "tmp"
        tmp.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp),
                   REPRO_LEDGER_DIR=str(run_dir / "ledger"))
        cmd = [sys.executable, "-m", "bench.worker", "--workload", workload,
               *args, "--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = None
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stray = _reap_group(proc.pid)
        if out is None:
            raise BenchError(f"{workload}: over the {RUN_LIMIT_S} s limit")
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited with "
                             f"{proc.returncode}")
        doc = json.loads(out.splitlines()[-1])
        doc["leftover_files"] = sum(1 for _ in tmp.rglob("*"))
        doc["failed"] += (doc["leftover_processes"] + stray
                          + doc["leftover_files"])
        return doc
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(name: str, *, seed: int, seconds: float, jobs: int,
                 trace: int) -> dict:
    """One run: the measured worker, plus set-up-only workers when
    untraced.  Returns the measured document with ``setup_s`` replaced
    by the median of every set-up sample."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--seed", str(seed), "--seconds", str(seconds),
              "--jobs", str(jobs), "--trace", str(trace)]
    docs = []
    if not trace:
        docs = [_spawn(name, [*common, "--setup-only"], deadline)
                for _ in range(SETUP_SAMPLES - 1)]
    else:
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        common += ["--trace-out", str(trace_path)]
    main = _spawn(name, common, deadline)
    docs.append(main)
    return {
        **main,
        "setup_s": statistics.median(d["setup_s"] for d in docs),
        "setup_samples": [d["setup_s"] for d in docs],
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(prog="python -m bench",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=declared["run_seconds"],
                    help="run length: this many seconds' worth of jobs "
                         "at the workload's reference-host rate, at "
                         "least 100")
    ap.add_argument("--jobs", type=int, default=0,
                    help="exact measured job count instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    prefix = len(names) * len(traces) > 1
    metrics: dict[str, dict] = {}
    runs = []
    try:
        for name in names:
            for trace in traces:
                doc = run_workload(name, seed=args.seed,
                                   seconds=args.seconds, jobs=args.jobs,
                                   trace=trace)
                runs.append({"workload": name, "trace": trace, **doc})
                print(f"{name} trace={trace}: {doc['jobs']} measured jobs, "
                      f"{doc['attempted']} checked, {doc['failed']} failed")
                kind = "per_layer" if trace else "end_to_end"
                for m in declared[kind]:
                    if m["name"] not in doc:
                        raise BenchError(f"{name}: declared metric "
                                         f"{m['name']} was not measured")
                    key = f"{name}.{m['name']}" if prefix else m["name"]
                    metrics[key] = {"value": doc[m["name"]],
                                    "unit": m["unit"]}
                    print(f"  {m['name']:32s} {doc[m['name']]:.6g} "
                          f"{m['unit']}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_rev": _git_rev(),
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": {f"{r['workload']}.trace{r['trace']}": r["jobs"]
                 for r in runs},
    }
    label = (args.workload or "all") + (
        f"-trace{args.trace}" if args.trace is not None else "")
    results = OUT / f"results-{label}-seed{args.seed}.json"
    results.write_text(json.dumps({"env": env, "runs": runs}, indent=1))
    print(f"env: {json.dumps(env)}")
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
