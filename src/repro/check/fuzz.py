"""Differential fuzzer: random small workloads, sim vs fast vs oracle.

Property-based cross-checking for the whole stack: each case draws a
tiny random workload (map kernel shape, key distribution, record
count), a memory mode, a reduce strategy and tuning knobs, then runs
it on the simulator *with the sanitizer in strict mode*, on the fast
functional backend (five times: once on the default memory store,
once on the spill store under a tiny forced budget, once through the
columnar execution path under a small batch width, and streamed in
three batches on each of the two stores), on the distributed backend
(``dist:2``) with the in-process fallback off, and through the
sequential CPU oracle (:func:`repro.cpu_ref.reference.reference_job`).
All outputs must agree after order normalisation — the alternate
store policy, the columnar path, the streamed runs and the
distributed run must match the scalar fast run byte for byte — and
the sanitizer must report nothing.

Every reduce kind but one folds with ``count`` or ``sum``, which give
the same bytes for any order of a group's values.  The ``ordered``
kind (TR only, no ``combine``) folds them into a position-weighted
hash, so on every executor that promises emission order within a
group — the oracle and the whole fast family, not the simulator — a
reordered group fails the byte-identity checks.

The fuzz kernels have no batch implementations, so the columnar leg
exercises exactly the hard part: array-shuffle grouping plus the
per-batch scalar fallback, across ragged keys, empty inputs and burst
emitters.

The generator deliberately over-samples degenerate shapes — empty
inputs, single records, one hot key, zero-output maps, and burst
emitters sized to force mid-kernel collector flushes — because those
are where boundary bugs live.

``--chaos`` switches the executor set: each case runs on the
distributed backend (``dist:2``, splits forced down to 64 bytes) under
a *seeded* fault plan that kills one worker after a pseudorandom
number of records, and must still be byte-identical to the fast
backend — with exactly-once completion accounting read from the
coordinator's event log.  Tiny cases may finish before the kill
threshold; a fault that never fires is a valid draw (the differential
check still ran under an armed plan).

Run standalone::

    python -m repro.check.fuzz --cases 200 --seed 7
    python -m repro.check.fuzz --chaos --cases 100 --seed 11

Every case is derived from ``(seed, index)`` alone, so a failure
report like ``case 137`` reproduces with ``--only 137`` (plus
``--chaos`` if that's the mode that failed).
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass

from ..config import override
from ..cpu_ref.reference import normalised, reference_job
from ..framework.api import MapReduceSpec
from ..framework.job import run_job
from ..framework.modes import MemoryMode, ReduceStrategy
from ..framework.records import KeyValueSet
from ..framework.streaming import run_streamed_job
from ..gpu.config import DeviceConfig

#: Input sizes, weighted toward the degenerate end.
_SIZES = (0, 0, 1, 1, 2, 3, 7, 16, 33, 64)

#: Key pools: small hot sets plus "unique" (every record its own key).
_KEY_POOLS = (1, 1, 2, 5, "unique")

_MODES = tuple(MemoryMode)
_STRATS = (None, ReduceStrategy.TR, ReduceStrategy.BR)

_KINDS = ("identity", "null", "filter", "burst", "count", "sum", "ordered")


def _u32(n: int) -> bytes:
    return (n & 0xFFFFFFFF).to_bytes(4, "little")


def _from_u32(b: bytes) -> int:
    return int.from_bytes(b[:4], "little")


# ---- map/reduce kernels ----------------------------------------------------
# All values are little-endian u32s (4 bytes; 1 to 4 for the ordered
# kind) so reductions are byte-exact integer folds (no float ordering
# concerns).

def _map_identity(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def _map_null(key, value, emit, const):
    pass


def _map_filter(key, value, emit, const):
    if _from_u32(value.to_bytes()) % 2 == 0:
        emit(key.to_bytes(), value.to_bytes())


def _map_burst(key, value, emit, const):
    k = key.to_bytes()
    v = value.to_bytes()
    for i in range(6):
        emit(k, _u32(_from_u32(v) + i))


def _map_ragged_burst(key, value, emit, const):
    # 1- to 4-byte values: the columnar group-by gathers them as lists.
    k = key.to_bytes()
    v = _from_u32(value.to_bytes())
    for i in range(3):
        emit(k, _u32(v + i)[:1 + (v + i) % 4])


def _reduce_count(key, values, emit, const):
    emit(key.to_bytes(), _u32(len(values)))


def _reduce_sum(key, values, emit, const):
    emit(key.to_bytes(), _u32(sum(_from_u32(v.to_bytes()) for v in values)))


def _reduce_ordered(key, values, emit, const):
    # A position-weighted hash: any reordering of a group's values
    # (reversal, a swapped pair) changes the bytes, unlike count/sum.
    h = len(values)
    for i, v in enumerate(values, 1):
        x = _from_u32(v.to_bytes()) + 1
        h = (h * 0x01000193 + i * x) & 0xFFFFFFFF
    emit(key.to_bytes(), _u32(h))


def _combine_count(a: bytes, b: bytes) -> bytes:
    return _u32(_from_u32(a) + _from_u32(b))


def _finalize_count(key: bytes, acc: bytes, count: int) -> tuple[bytes, bytes]:
    return key, _u32(count)


def _combine_sum(a: bytes, b: bytes) -> bytes:
    return _u32(_from_u32(a) + _from_u32(b))


def _finalize_sum(key: bytes, acc: bytes, count: int) -> tuple[bytes, bytes]:
    return key, acc


def _make_spec(kind: str, io_ratio: float | None) -> MapReduceSpec:
    maps = {
        "identity": _map_identity,
        "null": _map_null,
        "filter": _map_filter,
        "burst": _map_burst,
        "count": _map_identity,
        "sum": _map_identity,
        "ordered": _map_ragged_burst,
    }
    kwargs: dict = {}
    if kind == "count":
        kwargs.update(reduce_record=_reduce_count,
                      combine=_combine_count, finalize=_finalize_count)
    elif kind == "sum":
        kwargs.update(reduce_record=_reduce_sum,
                      combine=_combine_sum, finalize=_finalize_sum)
    elif kind == "ordered":
        # No combine: TR only, and a fold order that BR cannot keep.
        kwargs.update(reduce_record=_reduce_ordered)
    if io_ratio is not None:
        kwargs["io_ratio"] = io_ratio
    return MapReduceSpec(name=f"fuzz-{kind}", map_record=maps[kind], **kwargs)


# ---- case generation -------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    index: int
    kind: str
    n_records: int
    key_pool: object
    mode: MemoryMode
    strategy: ReduceStrategy | None
    threads_per_block: int
    io_ratio: float | None

    def describe(self) -> str:
        strat = self.strategy.value if self.strategy else "map-only"
        return (f"case {self.index}: {self.kind} n={self.n_records} "
                f"keys={self.key_pool} {self.mode.value}/{strat} "
                f"tpb={self.threads_per_block} io_ratio={self.io_ratio}")


def draw_case(seed: int, index: int) -> FuzzCase:
    """Derive case ``index`` of run ``seed`` (stateless: any case can
    be regenerated alone)."""
    rng = random.Random((seed << 20) ^ index)
    kind = rng.choice(_KINDS)
    if kind in ("count", "sum"):
        strategy = rng.choice((ReduceStrategy.TR, ReduceStrategy.BR))
    elif kind == "ordered":
        strategy = ReduceStrategy.TR
    else:
        strategy = None
    mode = rng.choice(_MODES)
    if strategy is ReduceStrategy.BR and mode is MemoryMode.GT:
        mode = MemoryMode.SIO  # BR x GT is illegal by design
    return FuzzCase(
        index=index,
        kind=kind,
        n_records=rng.choice(_SIZES),
        key_pool=rng.choice(_KEY_POOLS),
        mode=mode,
        strategy=strategy,
        threads_per_block=rng.choice((64, 128)),
        io_ratio=rng.choice((None, 0.3, 0.7)),
    )


def build_input(case: FuzzCase) -> KeyValueSet:
    rng = random.Random((case.index << 8) ^ 0xF00D)
    inp = KeyValueSet()
    for i in range(case.n_records):
        if case.key_pool == "unique":
            key = _u32(i)
        else:
            key = _u32(rng.randrange(case.key_pool))
        inp.append(key, _u32(rng.randrange(1 << 16)))
    return inp


# ---- execution -------------------------------------------------------------

@dataclass
class FuzzFailure:
    case: FuzzCase
    reason: str


def run_case(case: FuzzCase, config: DeviceConfig) -> str | None:
    """Run one case across all seven executors; None means it passed.

    The fuzz kernels emit only u32 integer values, so every backend
    must be byte-exact against the oracle after order normalisation;
    every other fast-family run (spill store, dist, columnar, streamed)
    must also be byte-identical to the scalar fast run.  The
    ``ordered`` kind skips the simulator, which does not keep emission
    order within a group.
    """
    from ..backend.distributed import DistributedBackend
    from ..backend.fast import FastBackend

    spec = _make_spec(case.kind, case.io_ratio)
    inp = build_input(case)
    want = normalised(reference_job(spec, inp, case.strategy))

    common = dict(mode=case.mode, strategy=case.strategy, config=config,
                  threads_per_block=case.threads_per_block)
    if case.kind != "ordered":
        # The simulator's Map appends through atomics, so a group's
        # values arrive in schedule order, not emission order: only
        # order-insensitive reduces compare against the oracle.
        sim = run_job(spec, inp, check="strict", **common)
        if normalised(sim.output) != want:
            return (f"sim output diverges from oracle "
                    f"({len(sim.output)} vs {len(want)} records)")
    fast = run_job(spec, inp, backend="fast", **common)
    if normalised(fast.output) != want:
        return (f"fast output diverges from oracle "
                f"({len(fast.output)} vs {len(want)} records)")
    # Same backend under the spill store with a budget small enough
    # that nearly every case writes runs: a different intermediate
    # policy must be byte-identical, not merely normalised-equal.
    spill = run_job(spec, inp, backend="fast", store="spill",
                    memory_budget=256, **common)
    if spill.output != fast.output:
        return (f"spill-store output diverges from the memory store "
                f"({len(spill.output)} vs {len(fast.output)} records)")
    dist = run_job(spec, inp,
                   backend=DistributedBackend(workers=2, min_records=0),
                   **common)
    if dist.output != fast.output:
        return (f"dist output diverges from fast "
                f"({len(dist.output)} vs {len(fast.output)} records)")
    # Columnar execution under a batch width small enough that most
    # cases span several batches.  These kernels declare no batch
    # implementations, so this drives the array shuffle plus the
    # per-batch scalar fallback; output must be byte-identical.
    with override(columnar_batch=7):
        col = run_job(spec, inp, backend=FastBackend(columnar=True),
                      **common)
    if col.output != fast.output:
        return (f"columnar output diverges from fast "
                f"({len(col.output)} vs {len(fast.output)} records)")
    # Batched Map (paper Section III-A) into each store's sink: only
    # when data moves changes, so the bytes must not.
    for store, budget in (("memory", None), ("spill", 256)):
        streamed = run_streamed_job(spec, inp, n_batches=3, backend="fast",
                                    store=store, memory_budget=budget,
                                    **common)
        if streamed.job.output != fast.output:
            return (f"streamed {store}-store output diverges from fast "
                    f"({len(streamed.job.output)} vs {len(fast.output)} "
                    f"records)")
    return None


def chaos_plan(seed: int, index: int, n_records: int):
    """The per-case chaos ingredient: one seeded worker kill.

    Derived from ``(seed, index)`` alone so ``--only`` reproduces the
    exact plan.  The kill threshold scales with the case size so the
    fault usually fires mid-run but sometimes legitimately never trips.
    """
    from ..dist import FaultPlan

    return FaultPlan.seeded((seed << 20) ^ index ^ 0xC4A05, workers=2,
                            max_records=max(4, 2 * n_records))


def run_chaos_case(case: FuzzCase, config: DeviceConfig,
                   seed: int) -> str | None:
    """Run one case on dist:2 under a seeded worker kill; None = pass.

    The distributed backend ships plain pairs, so even with a worker
    dying mid-phase its output must be byte-identical to the fast
    backend — and the coordinator's event log must show exactly one
    accepted completion per (phase, shard).
    """
    from ..backend.distributed import DistributedBackend

    spec = _make_spec(case.kind, case.io_ratio)
    inp = build_input(case)
    common = dict(mode=case.mode, strategy=case.strategy, config=config,
                  threads_per_block=case.threads_per_block)
    fast = run_job(spec, inp, backend="fast", **common)
    want = normalised(reference_job(spec, inp, case.strategy))
    if normalised(fast.output) != want:
        return (f"fast output diverges from oracle "
                f"({len(fast.output)} vs {len(want)} records)")
    plan = chaos_plan(seed, case.index, case.n_records)
    backend = DistributedBackend(workers=2, min_records=0, split_bytes=64,
                                 fault_plan=plan)
    dist = run_job(spec, inp, backend=backend, **common)
    if dist.output != fast.output:
        return (f"chaos dist output diverges from fast under "
                f"{plan.describe()} ({len(dist.output)} vs "
                f"{len(fast.output)} records)")
    completes = Counter((e.phase, e.shard) for e in backend.last_events
                        if e.kind == "complete")
    bad = {k: n for k, n in completes.items() if n != 1}
    if bad:
        return f"shards completed != exactly once: {bad}"
    assigned = {(e.phase, e.shard) for e in backend.last_events
                if e.kind == "assign"}
    if assigned != set(completes):
        return (f"assigned/completed shard sets differ: "
                f"{sorted(assigned ^ set(completes))}")
    return None


def run_fuzz(seed: int, cases: int, *, verbose: bool = False,
             only: int | None = None,
             chaos: bool = False) -> list[FuzzFailure]:
    """Run ``cases`` cases (or just ``only``); return the failures."""
    config = DeviceConfig.small(2)
    indices = [only] if only is not None else range(cases)
    failures: list[FuzzFailure] = []
    for i in indices:
        case = draw_case(seed, i)
        try:
            reason = (run_chaos_case(case, config, seed) if chaos
                      else run_case(case, config))
        except Exception as exc:  # noqa: BLE001 — report, keep fuzzing
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(FuzzFailure(case, reason))
            # Cases derive from (seed, index) alone: the printed
            # command reproduces this exact failure in isolation.
            flag = "--chaos " if chaos else ""
            print(f"FAIL {case.describe()}\n     {reason}\n     "
                  f"repro: python -m repro.check.fuzz {flag}"
                  f"--seed {seed} --only {i}", file=sys.stderr)
        elif verbose:
            print(f"ok   {case.describe()}")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.check.fuzz",
        description="Differential fuzzer: sim (sanitized) vs fast vs "
                    "CPU oracle on random small workloads.")
    ap.add_argument("--cases", type=int, default=200,
                    help="number of cases to run (default 200)")
    ap.add_argument("--seed", type=int, default=7,
                    help="run seed; case i depends only on (seed, i)")
    ap.add_argument("--only", type=int, default=None,
                    help="re-run a single case index from this seed")
    ap.add_argument("--chaos", action="store_true",
                    help="run each case on dist:2 under a seeded worker "
                         "kill instead of the standard executor set")
    ap.add_argument("--verbose", action="store_true",
                    help="print every passing case too")
    args = ap.parse_args(argv)

    failures = run_fuzz(args.seed, args.cases,
                        verbose=args.verbose, only=args.only,
                        chaos=args.chaos)
    ran = 1 if args.only is not None else args.cases
    label = "chaos " if args.chaos else ""
    if failures:
        print(f"{label}fuzz: {len(failures)}/{ran} cases FAILED "
              f"(seed={args.seed})", file=sys.stderr)
        return 1
    print(f"{label}fuzz: {ran} cases passed (seed={args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
