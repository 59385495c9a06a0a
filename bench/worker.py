"""One workload run in its own process: ``python -m bench.worker``.

Started by ``python -m bench`` with every ``REPRO_*`` variable removed,
a fresh ``REPRO_LEDGER_DIR`` and a private ``TMPDIR``.  It times set-up
(interpreter start to the end of warm-up, less the oracle), then runs
one ``run_job`` at a time in a closed loop, checks every output against
the oracle outside the timed interval, and prints one JSON document as
its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from repro.framework.job import run_job
from repro.obs.ledger import read_ledger

from .layers import Recorder, job_counters, layer_metrics, seams
from .workloads import WORKLOADS, reference_output

#: One cold job and two warm ones, all inside set-up time.
WARMUP_JOBS = 3
#: Fewest measured jobs in a run, so that at least ten samples lie
#: beyond the reported p90.
MIN_JOBS = 100

#: Host-speed calibration: a fixed pure-Python dict count that shares
#: no code with the program under test, timed after every measured job.
#: On a host whose physical cores are shared with other tenants, the
#: speed of the same job swings by up to 1.8x within a minute, and CPU
#: time swings with it.  End-to-end times are therefore scaled by
#: ``REFERENCE_CALIBRATION_S`` over the calibration samples taken around
#: each job: they read as seconds on the reference host (2 vCPU Xeon VM,
#: Python 3.11, idle), where the kernel takes that long.
_CALIBRATION_WORDS = [b"w%d" % (i * 7919 % 997) for i in range(20000)]
REFERENCE_CALIBRATION_S = 0.0023
#: Calibration samples (centred on the job) whose median scales a job.
CALIBRATION_WINDOW = 3
#: Calibration samples a set-up-only worker takes after warm-up.
SETUP_CALIBRATIONS = 30


def calibration_s() -> float:
    t0 = time.perf_counter_ns()
    counts: dict[bytes, int] = {}
    for w in _CALIBRATION_WORDS:
        counts[w] = counts.get(w, 0) + 1
    sorted(counts.items())
    return (time.perf_counter_ns() - t0) / 1e9


def _cpu_s() -> float:
    """User + system seconds of this process and its reaped children
    (the distributed backend's workers are reaped inside each job)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _leftover_processes() -> int:
    """Child processes still running or never reaped (should be 0)."""
    n = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return n
        if pid == 0:
            return n + 1
        n += 1


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


class Loop:
    """Runs jobs, times them, and checks each against the oracle."""

    def __init__(self, workload, spec, inp, reference):
        self.workload = workload
        self.spec = spec
        self.inp = inp
        self.reference = (reference if workload.ordered
                          else sorted(reference))
        self.rec = Recorder()
        self.cycles = None
        self.attempted = 0
        self.failed = 0
        #: Work counters of every job that passed its checks.
        self.counters: list[dict] = []

    def _run(self, traced: bool):
        if not traced:
            t0 = time.perf_counter_ns()
            result = run_job(self.spec, self.inp, **self.workload.options)
            return result, time.perf_counter_ns() - t0
        self.rec.job = self.attempted
        with seams(self.rec), self.rec.span("job"):
            t0 = time.perf_counter_ns()
            result = run_job(self.spec, self.inp, **self.workload.options)
            return result, time.perf_counter_ns() - t0

    def job(self, traced: bool = False):
        """One job: ``(wall_ns, cpu_s, counters)``, or None when it
        raised, its output differs from the oracle's, or its simulated
        cycles differ from the first job's."""
        self.attempted += 1
        cpu0 = _cpu_s()
        try:
            result, wall_ns = self._run(traced)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        cpu = _cpu_s() - cpu0
        out = result.output
        same = (out == self.reference if self.workload.ordered
                else sorted(out) == self.reference)
        counters = job_counters(result)
        if self.cycles is None:
            self.cycles = counters["sim.cycles"]
        if not same or counters["sim.cycles"] != self.cycles:
            self.failed += 1
            print(f"{self.workload.name}: job {self.attempted}: "
                  f"{'cycle drift' if same else 'output != reference'}",
                  file=sys.stderr)
            return None
        self.counters.append(counters)
        return wall_ns, cpu, counters

    def guard(self) -> None:
        if self.workload.guard is not None:
            tuned = [r for r in read_ledger() if r.get("tuned")]
            self.workload.guard(self.workload.name, self.counters, tuned)


def _measure(loop: Loop, jobs: int) -> dict:
    """End-to-end metrics over ``jobs`` untraced jobs."""
    raw_walls: list[float] = []
    raw_cpus: list[float] = []
    calibrations: list[float] = []
    for _ in range(jobs):
        done = loop.job()
        calibration = calibration_s()
        if done is None:
            continue
        raw_walls.append(done[0] / 1e9)
        raw_cpus.append(done[1])
        calibrations.append(calibration)
    if not raw_walls:
        raise RuntimeError(f"{loop.workload.name}: no job succeeded")
    loop.guard()
    # Each job is scaled by the median of the calibration samples taken
    # around it: one 2 ms sample is too jittery on its own, and a single
    # factor per run misses the host's speed changing within seconds.
    h = CALIBRATION_WINDOW // 2
    speeds = [REFERENCE_CALIBRATION_S
              / statistics.median(calibrations[max(0, i - h):i + h + 1])
              for i in range(len(calibrations))]
    walls = [w * s for w, s in zip(raw_walls, speeds)]
    return {
        "jobs": len(walls),
        "job_p50_s": statistics.median(walls),
        "job_p90_s": p90(walls),
        "records_per_s": len(loop.inp) * len(walls) / sum(walls),
        "cpu_s_per_job": statistics.fmean(
            c * s for c, s in zip(raw_cpus, speeds)),
        "host_speed": statistics.median(speeds),
        "raw_job_p50_s": statistics.median(raw_walls),
        "raw_job_p90_s": p90(raw_walls),
        "samples": {"wall_s": raw_walls, "cpu_s": raw_cpus,
                    "calibration_s": calibrations},
    }


def _measure_traced(loop: Loop, jobs: int, trace_out: str | None) -> dict:
    """Per-layer metrics.  Jobs alternate traced / untraced: per-layer
    medians come from the traced ones, and the two job-wall medians
    give the tracing overhead."""
    walls: list[int] = []
    plain: list[int] = []
    per_job: list[dict] = []
    for n in range(jobs):
        traced = n % 2 == 0
        mark = len(loop.rec.spans)
        done = loop.job(traced)
        if done is None:
            continue
        wall_ns, _, counters = done
        if not traced:
            plain.append(wall_ns)
            continue
        spans = [sp for sp in loop.rec.spans[mark:] if sp.name != "job"]
        walls.append(wall_ns)
        per_job.append({**counters, **layer_metrics(
            spans, wall_ns, counters, loop.rec.backend)})
    if not walls:
        raise RuntimeError(f"{loop.workload.name}: no traced job succeeded")
    loop.guard()
    metrics = {name: statistics.median(job[name] for job in per_job)
               for name in per_job[0]}
    decile = max(1, len(walls) // 10)
    metrics["core.drift_ratio"] = (statistics.median(walls[-decile:])
                                   / statistics.median(walls[:decile]))
    choices = [r["tuner_choice"] for r in read_ledger() if r.get("tuned")]
    metrics["tune.choice_changes"] = sum(
        a != b for a, b in zip(choices, choices[1:]))
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(plain) - 1.0
        if plain else 0.0)
    if trace_out:
        loop.rec.write_chrome(trace_out, f"bench {loop.workload.name}")
    return {"jobs": len(walls), **metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m bench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--jobs", type=int, required=True,
                    help="exact job count; 0 derives it from --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent spawned this")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec, inp = workload.build(args.seed)
    paused = time.monotonic_ns()
    reference = reference_output(spec, inp)
    resumed = time.monotonic_ns()
    loop = Loop(workload, spec, inp, reference)
    for _ in range(WARMUP_JOBS):
        loop.job()
    setup_s = (paused - args.spawn_ns + time.monotonic_ns() - resumed) / 1e9
    jobs = args.jobs or max(MIN_JOBS, round(args.seconds
                                            * workload.jobs_per_s))
    if args.setup_only:
        loop.guard()
        doc = {"host_speed": statistics.median(
            REFERENCE_CALIBRATION_S / calibration_s()
            for _ in range(SETUP_CALIBRATIONS))}
    elif args.trace:
        doc = _measure_traced(loop, jobs, args.trace_out)
    else:
        doc = _measure(loop, jobs)
    doc["raw_setup_s"] = setup_s
    doc["setup_s"] = setup_s * doc.get("host_speed", 1.0)
    doc["records"] = len(inp)
    doc["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    doc["leftover_processes"] = _leftover_processes()
    doc["attempted"] = loop.attempted
    doc["failed"] = loop.failed
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
