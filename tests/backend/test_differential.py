"""Cross-backend differential suite: fast vs sim vs parallel vs oracle.

For every workload x memory mode x reduce strategy, the fast
functional backend must produce output record-identical to the
cycle-accurate simulator and to the CPU reference oracle (normalised
ordering — atomic appends legitimately permute records; float32
tolerance where summation order differs, exactly as the conformance
matrix does).  The sharded parallel backend must match the fast
backend *exactly* — same records, same order — float BR folds
included: workers ship plain pairs and fold each group in full.

A fourth executor rides along: the fast backend with the spill store
forced down to a tiny budget, so every case's shuffle goes through
sorted runs and the k-way merge.  Its contract is the strictest —
byte-identical to the memory-store fast run, records *and* order.

A fifth executor is the columnar fast backend
(``FastBackend(columnar=True)``): batched array Map/Shuffle/Reduce
with each workload's ``map_batch``/``reduce_batch`` kernels and
per-batch scalar fallback everywhere else.  Non-float workloads must
be byte-identical to the scalar fast run (records *and* order); the
float workloads (KM, SS, LR) match under the usual float32 tolerance.

The seventh and eighth executors are the distributed backend
(``dist:2`` — coordinator + socket workers, GFS-style splits forced
small so every case really schedules multiple tasks) and ``dist:2``
with the spill store at the same tiny budget.  Dist runs the same
sharded skeleton and task bodies as the parallel backend over a
different transport, so its contract is the same: byte-identical to
the fast backend for *every* workload, float BR folds included.
"""

import pytest

from repro.analysis.validation import outputs_match
from repro.backend import DistributedBackend, FastBackend, ParallelBackend
from repro.cpu_ref import reference_job
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.gpu import DeviceConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS

CFG = DeviceConfig.small(2)

#: Generation scale per workload code — keeps the 8 x 5 x strategies
#: sim sweep tractable while still exercising multi-block grids.
SCALE = {"WC": 0.3, "MM": 0.5, "SM": 0.3, "II": 0.3, "KM": 0.25,
         "SS": 0.5, "HG": 0.2, "LR": 0.25}

WORKLOADS = [cls() for cls in (*ALL_WORKLOADS, *EXTRA_WORKLOADS)]

#: Spill budget forced low enough that every differential case with a
#: Reduce phase actually writes and merges runs.
SPILL_BUDGET = 512

#: Map-split size for the dist executors: small enough that every
#: case cuts multiple tasks per worker (real scheduling, not one
#: task per worker).
DIST_SPLIT = 256


def _dist_backend():
    return DistributedBackend(workers=2, min_records=0,
                              split_bytes=DIST_SPLIT)


def _float_vals(code: str) -> bool:
    return code in ("KM", "SS", "LR")


def _cases():
    for w in WORKLOADS:
        strategies = [None]
        if w.has_reduce:
            strategies = [ReduceStrategy.TR, ReduceStrategy.BR]
        for mode in MemoryMode:
            for strat in strategies:
                if strat is ReduceStrategy.BR and mode is MemoryMode.GT:
                    continue  # illegal combination by design
                yield w, mode, strat


@pytest.mark.parametrize(
    "workload,mode,strategy",
    list(_cases()),
    ids=lambda p: getattr(p, "code", None) or getattr(p, "value", str(p)),
)
def test_fast_matches_sim_and_oracle(workload, mode, strategy):
    inp = workload.generate("small", seed=11, scale=SCALE[workload.code])
    spec = workload.spec_for_size("small", seed=11,
                                  scale=SCALE[workload.code])
    kwargs = dict(mode=mode, strategy=strategy, config=CFG,
                  threads_per_block=64)
    sim = run_job(spec, inp, backend="sim", **kwargs)
    fast = run_job(spec, inp, backend="fast", **kwargs)
    par = run_job(spec, inp, backend=ParallelBackend(workers=2,
                                                    min_records=0),
                  **kwargs)
    ref = reference_job(spec, inp, strategy)
    fv = _float_vals(workload.code)

    assert outputs_match(fast.output, sim.output, float32_values=fv)
    assert outputs_match(fast.output, ref, float32_values=fv)
    # Metadata parity: same shape of result, not just same records.
    assert fast.spec_name == sim.spec_name
    assert fast.mode == sim.mode
    assert fast.strategy == sim.strategy
    assert fast.intermediate_count == sim.intermediate_count
    assert len(fast.output) == len(sim.output)

    # Parallel: byte-identical to fast, float BR folds included.
    assert par.output == fast.output
    assert par.intermediate_count == fast.intermediate_count
    assert par.mode == fast.mode and par.strategy == fast.strategy

    # Spill store under a tiny budget: same backend, different
    # intermediate policy — must be byte-identical, no tolerance.
    spill = run_job(spec, inp, backend="fast", store="spill",
                    memory_budget=SPILL_BUDGET, **kwargs)
    assert spill.output == fast.output
    assert spill.intermediate_count == fast.intermediate_count
    if strategy is not None:
        assert spill.reduce_stats.extra.get("spill_runs", 0) > 0

    # Columnar fast backend: byte-identical for integer workloads,
    # float32 tolerance for the float ones (the batch kernels preserve
    # scalar accumulation order, so in practice they are bit-equal).
    col = run_job(spec, inp, backend=FastBackend(columnar=True), **kwargs)
    if fv:
        assert outputs_match(col.output, fast.output, float32_values=True)
    else:
        assert col.output == fast.output
    assert col.intermediate_count == fast.intermediate_count
    assert col.mode == fast.mode and col.strategy == fast.strategy

    # Columnar + spill: the array shuffle routed through sorted runs
    # must reproduce the columnar memory-store run byte for byte.
    col_spill = run_job(spec, inp, backend=FastBackend(columnar=True),
                        store="spill", memory_budget=SPILL_BUDGET, **kwargs)
    assert col_spill.output == col.output
    if strategy is not None:
        assert col_spill.reduce_stats.extra.get("spill_runs", 0) > 0

    # Distributed backend: plain pairs over the wire, first-result-wins
    # dedupe — byte-identical to fast for every workload, no float
    # tolerance anywhere.
    dist = run_job(spec, inp, backend=_dist_backend(), **kwargs)
    assert dist.output == fast.output
    assert dist.intermediate_count == fast.intermediate_count
    assert dist.mode == fast.mode and dist.strategy == fast.strategy

    # Distributed + spill: worker-side run files merged coordinator-side
    # must reproduce the fast spill run byte for byte.
    dist_spill = run_job(spec, inp, backend=_dist_backend(),
                         store="spill", memory_budget=SPILL_BUDGET,
                         **kwargs)
    assert dist_spill.output == fast.output
    if strategy is not None:
        assert dist_spill.reduce_stats.extra.get("spill_runs", 0) > 0


class TestDegenerateInputs:
    """Backend parity on the inputs the fuzzer flagged as the risky
    corners: empty input, one hot key, zero-output map.  The parallel
    backend runs with the tiny-input fallback disabled so the pool
    path itself faces the degenerate shapes."""

    def _spec(self, map_fn, reduce_fn=None):
        from repro.framework.api import MapReduceSpec

        return MapReduceSpec(name="degen", map_record=map_fn,
                             reduce_record=reduce_fn)

    def _run_both(self, spec, inp, strategy=None):
        kwargs = dict(mode=MemoryMode.SIO, strategy=strategy, config=CFG,
                      threads_per_block=64)
        sim = run_job(spec, inp, backend="sim", check=True, **kwargs)
        fast = run_job(spec, inp, backend="fast", **kwargs)
        par = run_job(spec, inp,
                      backend=ParallelBackend(workers=4, min_records=0),
                      **kwargs)
        assert par.output == fast.output
        spill = run_job(spec, inp, backend="fast", store="spill",
                        memory_budget=64, **kwargs)
        assert spill.output == fast.output
        par_spill = run_job(spec, inp,
                            backend=ParallelBackend(workers=4,
                                                    min_records=0),
                            store="spill", memory_budget=64, **kwargs)
        assert par_spill.output == fast.output
        col = run_job(spec, inp, backend=FastBackend(columnar=True),
                      **kwargs)
        assert col.output == fast.output
        col_spill = run_job(spec, inp, backend=FastBackend(columnar=True),
                            store="spill", memory_budget=64, **kwargs)
        assert col_spill.output == fast.output
        dist = run_job(spec, inp, backend=_dist_backend(), **kwargs)
        assert dist.output == fast.output
        dist_spill = run_job(spec, inp, backend=_dist_backend(),
                             store="spill", memory_budget=64, **kwargs)
        assert dist_spill.output == fast.output
        return sim, fast

    def test_empty_input(self):
        from repro.framework.records import KeyValueSet

        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        sim, fast = self._run_both(self._spec(ident), KeyValueSet())
        assert len(sim.output) == len(fast.output) == 0
        assert outputs_match(fast.output, sim.output)
        assert sim.check_report is not None and sim.check_report.ok

    def test_all_records_one_key(self):
        """LR-style: every record reduces into a single key set."""
        from repro.framework.records import KeyValueSet

        def ident(key, value, emit, const):
            emit(key.to_bytes(), value.to_bytes())

        def total(key, values, emit, const):
            s = sum(int.from_bytes(v.to_bytes(), "little") for v in values)
            emit(key.to_bytes(), (s & 0xFFFFFFFF).to_bytes(4, "little"))

        inp = KeyValueSet()
        for i in range(50):
            inp.append(b"only", i.to_bytes(4, "little"))
        sim, fast = self._run_both(self._spec(ident, total), inp,
                                   strategy=ReduceStrategy.TR)
        ref = reference_job(self._spec(ident, total), inp, ReduceStrategy.TR)
        assert outputs_match(fast.output, sim.output)
        assert outputs_match(sim.output, ref)
        assert len(sim.output) == 1
        assert sim.check_report.ok

    def test_zero_output_map(self):
        from repro.framework.records import KeyValueSet

        def swallow(key, value, emit, const):
            pass

        inp = KeyValueSet()
        for i in range(20):
            inp.append(i.to_bytes(4, "little"), b"x")
        sim, fast = self._run_both(self._spec(swallow), inp)
        assert len(sim.output) == len(fast.output) == 0
        assert sim.check_report.ok
