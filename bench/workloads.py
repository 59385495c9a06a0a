"""The five benchmark workloads: inputs, run options, oracle and guards.

Each workload is one ``run_job`` call repeated in a closed loop.  They
are chosen so that every layer an optimisation could touch is
exercised by one workload and bypassed by another; README.md says why
each one exists.  ``repro`` is imported lazily so that the orchestrator
(``python -m bench``) can read this table without paying for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class PathNotEngaged(RuntimeError):
    """A workload's mechanism silently fell back to another path, so its
    numbers no longer measure what the workload exists to measure."""


def _wordcount(size: str, scale: float, lines: int, words: int):
    """WordCount input: ``words`` words in ``lines`` lines, drawn by the
    seed.

    The text generator draws a new vocabulary from every seed, and with
    it the words per byte: across seeds the same size held 4.7k to 6.7k
    words, and job time follows them (Map emits one pair per word).
    Here the generator's seed-0 text (``size`` times ``scale``) is a
    fixed Zipf corpus, the seed draws ``words`` words from it, and they
    are reflowed into ``lines`` lines: each seed is a different text of
    the same size and word distribution.
    """
    def build(seed: int):
        import numpy as np

        from repro.framework.records import KeyValueSet
        from repro.workloads import WordCount

        w = WordCount()
        corpus = [word for line in w.generate(size, seed=0,
                                              scale=scale).keys
                  for word in line.split(b" ")]
        picks = np.random.default_rng(seed).integers(len(corpus), size=words)
        text = [corpus[i] for i in picks]
        inp = KeyValueSet()
        for i in range(lines):
            inp.append(b" ".join(text[i * words // lines:
                                      (i + 1) * words // lines]),
                       i.to_bytes(4, "little"))
        return w.spec(), inp
    return build


def _kmeans(size: str):
    def build(seed: int):
        from repro.workloads import KMeans

        w = KMeans()
        inp = w.generate(size, seed=seed)
        return w.spec_for_seed(seed), inp
    return build


def _require(metric: str, least: float):
    """Guard: ``metric`` is at least ``least`` on every job."""
    def guard(workload: str, jobs: list[dict], ledger: list[dict]) -> None:
        low = min(job[metric] for job in jobs)
        if low < least:
            raise PathNotEngaged(
                f"{workload}: {metric} fell to {low}, expected >= {least}"
            )
    return guard


def _tuner_picks_columnar(workload: str, jobs: list[dict],
                          ledger: list[dict]) -> None:
    _require("columnar.batches", 1)(workload, jobs, ledger)
    picked = {rec.get("backend") for rec in ledger if rec.get("tuned")}
    if picked != {"columnar"}:
        raise PathNotEngaged(
            f"{workload}: the tuner picked {sorted(map(str, picked))}, "
            "expected only 'columnar'"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> (spec, input)``; the program sees only these.
    build: Callable[[int], tuple]
    #: Keyword arguments of every measured ``run_job`` call.
    options: dict
    #: Jobs per second of ``--seconds``: the workload's rate on the
    #: reference host, or more where the median needs more samples to
    #: be steady.  A run does a fixed ``seconds * jobs_per_s`` jobs
    #: rather than running until a deadline: the ledger, which the tuner
    #: re-reads on every job, must reach the same size on a slow host as
    #: on a fast one.
    jobs_per_s: float
    #: Raises :class:`PathNotEngaged` when the mechanism did not run:
    #: ``guard(name, per-job counters, tuned ledger records)``.
    guard: Callable[[str, list[dict], list[dict]], None] | None = None
    #: The simulator appends output records atomically, so only the
    #: record multiset is specified; every other backend must match the
    #: reference byte for byte, order included.
    ordered: bool = True


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The paper's product: shared-memory staging on the cycle simulator.
    Workload("sim-wc", _wordcount("small", 0.5, 965, 5400),
             dict(mode="SIO", strategy="TR", backend="sim"), 10,
             guard=_require("sim.cycles", 1), ordered=False),
    # Ragged keys: every columnar map batch declines to scalar and the
    # shuffle sorts in Python.
    Workload("wc-columnar", _wordcount("large", 1.0, 7742, 43000),
             dict(mode="SIO", strategy="TR", backend="columnar",
                  store="memory"), 15,
             guard=_require("columnar.batches", 1)),
    # Short vectorized jobs behind the tuner: per-job overhead shows.
    Workload("km-auto", _kmeans("large"),
             dict(strategy="TR", tune=True), 40,
             guard=_tuner_picks_columnar),
    # Same input as wc-columnar, through the out-of-core store.
    Workload("wc-spill", _wordcount("large", 1.0, 7742, 43000),
             dict(mode="SIO", strategy="TR", backend="fast", store="spill",
                  memory_budget=65536), 9,
             guard=_require("store.spill_runs", 1)),
    # Above the 2048-record in-process fallback, so the cluster runs;
    # its ~108 KB of split cost is always cut into 2 map tasks.  Twice
    # its rate in jobs: forking workers every job makes it the noisiest.
    Workload("wc-dist", _wordcount("medium", 0.6, 2100, 11000),
             dict(mode="SIO", strategy="TR", backend="dist:2"), 15,
             guard=_require("dist.map_tasks", 1)),
)}


def reference_output(spec, inp):
    """The oracle: scalar ``fast`` on the memory store, ledger off."""
    import os

    from repro.backend import FastBackend
    from repro.framework.job import run_job
    from repro.obs.ledger import LEDGER_ENV

    os.environ[LEDGER_ENV] = "0"
    try:
        return run_job(spec, inp, mode="SIO", strategy="TR",
                       backend=FastBackend(columnar=False),
                       store="memory").output
    finally:
        del os.environ[LEDGER_ENV]
