"""Tests for the memoized access-pattern analyses.

The caches must be *invisible*: bit-identical results to the uncached
model functions, identical simulated cycles whether they start cold or
warm, and wholesale invalidation whenever the engine's timing
parameters change.
"""

import dataclasses

import pytest

from repro.framework.job import run_job
from repro.framework.modes import MemoryMode, ReduceStrategy
from repro.gpu.analysis_cache import (
    AnalysisCache,
    cache_counters,
    caches,
    clear_all_caches,
    note_timing,
    totals,
)
from repro.gpu.banks import BANK_CACHE, conflict_degree, conflict_degree_cached
from repro.gpu.coalescing import (
    TXN_CACHE,
    scattered_transactions,
    scattered_transactions_cached,
)
from repro.gpu.config import DeviceConfig, TimingParams
from repro.workloads import WordCount


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts cold with zeroed counters."""
    clear_all_caches()
    for c in caches():
        c.reset_counters()
    yield
    clear_all_caches()


# ----------------------------------------------------------------------
# Exactness: cached == uncached, on a spread of patterns
# ----------------------------------------------------------------------

PATTERNS = [
    [(i * 4, 4) for i in range(16)],              # fully coalesced
    [(i * 64, 4) for i in range(16)],             # one txn per lane
    [(0, 4)] * 16,                                # all lanes same word
    [(i * 12 + 5, 8) for i in range(16)],         # misaligned stride
    [(1000 + i * 4, 2) for i in range(7)],        # partial warp, subword
    [(64 * (i % 3), 4) for i in range(16)],       # few segments, repeats
]


@pytest.mark.parametrize("accesses", PATTERNS)
def test_scattered_transactions_cached_exact(accesses):
    for seg in (32, 64, 128):
        assert scattered_transactions_cached(accesses, seg) == (
            scattered_transactions(accesses, seg)
        )


@pytest.mark.parametrize("shift_segs", [0, 1, 17, 1024])
def test_coalescing_shift_invariant_key_shares_entry(shift_segs):
    seg = 64
    base = [(i * 8, 4) for i in range(16)]
    shifted = [(a + shift_segs * seg, s) for a, s in base]
    first = scattered_transactions_cached(base, seg)
    h0, m0 = TXN_CACHE.hits, TXN_CACHE.misses
    assert scattered_transactions_cached(shifted, seg) == first
    # A whole-segment shift is the *same* normalized pattern: pure hit.
    assert (TXN_CACHE.hits, TXN_CACHE.misses) == (h0 + 1, m0)


def test_bank_conflict_cached_exact():
    patterns = [
        list(range(0, 64, 4)),        # stride-4 words: 4-way conflict
        list(range(16)),              # stride-1: conflict-free
        [0] * 16,                     # broadcast
        [i * 16 for i in range(16)],  # all one bank
        [7, 7, 23, 23, 39, 39],       # partial warp with repeats
    ]
    for words in patterns:
        assert conflict_degree_cached(words) == conflict_degree(words)


def test_bank_conflict_shift_invariance_hits():
    words = [i * 8 for i in range(16)]  # byte addresses of 4-byte words
    period = 64  # NUM_BANKS * BANK_WIDTH bytes
    first = conflict_degree_cached(words)
    h0 = BANK_CACHE.hits
    assert conflict_degree_cached([w + 5 * period for w in words]) == first
    assert BANK_CACHE.hits == h0 + 1


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------

def test_hit_miss_accounting():
    acc = [(i * 4, 4) for i in range(16)]
    assert (TXN_CACHE.hits, TXN_CACHE.misses) == (0, 0)
    scattered_transactions_cached(acc, 64)
    assert (TXN_CACHE.hits, TXN_CACHE.misses) == (0, 1)
    scattered_transactions_cached(acc, 64)
    scattered_transactions_cached(acc, 64)
    assert (TXN_CACHE.hits, TXN_CACHE.misses) == (2, 1)
    # A different segment size is a different pattern key.
    scattered_transactions_cached(acc, 128)
    assert (TXN_CACHE.hits, TXN_CACHE.misses) == (2, 2)
    ctrs = cache_counters()["coalescing.scattered"]
    assert ctrs["hits"] == 2 and ctrs["misses"] == 2
    assert ctrs["entries"] == 2
    th, tm = totals()
    assert th >= 2 and tm >= 2


def test_bounded_cache_flushes_wholesale():
    c = AnalysisCache("test.bounded", max_entries=4)
    for i in range(4):
        c.room()
        c.data[i] = i
    assert c.evictions == 0 and len(c.data) == 4
    c.room()
    assert c.evictions == 1 and len(c.data) == 0


def test_kernel_stats_surface_cache_counters():
    w = WordCount()
    inp = w.generate("small", seed=0)
    spec = w.spec_for_size("small", seed=0)
    res = run_job(spec, inp, mode=MemoryMode.SIO,
                  strategy=ReduceStrategy.TR, backend="sim")
    st = res.map_stats
    assert st.analysis_cache_misses > 0
    assert st.analysis_cache_hits > 0
    # Re-running the identical job hits the warm caches: by the second
    # launch the repetitive patterns are all resident.
    res2 = run_job(spec, inp, mode=MemoryMode.SIO,
                   strategy=ReduceStrategy.TR, backend="sim")
    st2 = res2.map_stats
    assert st2.analysis_cache_hits > st2.analysis_cache_misses
    assert st2.analysis_cache_hits > st.analysis_cache_hits


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------

def test_note_timing_invalidates_on_change():
    t1 = TimingParams()
    note_timing(t1)
    scattered_transactions_cached([(i * 4, 4) for i in range(16)], 64)
    assert len(TXN_CACHE.data) == 1
    # Same params (equal value): no flush.
    note_timing(TimingParams())
    assert len(TXN_CACHE.data) == 1
    # Different params: every registered cache is flushed.
    note_timing(dataclasses.replace(t1, txn_bytes=128))
    assert len(TXN_CACHE.data) == 0


def test_engine_construction_applies_note_timing():
    from repro.gpu.kernel import Device

    scattered_transactions_cached([(i * 4, 4) for i in range(16)], 64)
    assert len(TXN_CACHE.data) == 1
    cfg = DeviceConfig.small(1)
    cfg2 = dataclasses.replace(
        cfg, timing=dataclasses.replace(cfg.timing, global_latency=123.0)
    )

    def k(ctx):
        yield from ctx.compute(1)

    Device(cfg2).launch(k, grid=1, block=32)
    assert len(TXN_CACHE.data) == 0  # config change flushed the memo


# ----------------------------------------------------------------------
# Cycle identity: cold vs warm caches, observed vs fast event loop
# ----------------------------------------------------------------------

def _run_wc(**kw):
    w = WordCount()
    inp = w.generate("small", seed=0)
    spec = w.spec_for_size("small", seed=0)
    return run_job(spec, inp, mode=MemoryMode.SIO,
                   strategy=ReduceStrategy.TR, backend="sim", **kw)


def test_cold_and_warm_caches_give_identical_cycles():
    cold = _run_wc()
    warm = _run_wc()  # every pattern now hits
    assert warm.map_stats.analysis_cache_hits >= cold.map_stats.analysis_cache_hits
    assert cold.total_cycles == warm.total_cycles
    assert cold.timings.map == warm.timings.map
    assert cold.timings.reduce == warm.timings.reduce
    assert cold.output == warm.output
