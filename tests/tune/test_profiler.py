"""Input profiler: sampling caps, stats, and the overhead guard."""

import struct
import time

from repro.framework import KeyValueSet
from repro.framework.api import MapReduceSpec
from repro.framework.job import run_job
from repro.gpu.config import DeviceConfig
from repro.tune.profiler import (
    SAMPLE_CAP_BYTES,
    SAMPLE_CAP_RECORDS,
    profile_input,
)


def word_map(key, value, emit, const):
    for w in key.to_bytes().split(b" "):
        if w:
            emit(w, struct.pack("<I", 1))


def sum_reduce(key, values, emit):
    total = 0
    for v in values:
        (x,) = struct.unpack("<I", v.to_bytes())
        total += x
    emit(key, struct.pack("<I", total))


def _spec(name="prof"):
    return MapReduceSpec(name=name, map_record=word_map,
                         reduce_record=sum_reduce)


class TestSamplingCaps:
    def test_record_cap(self):
        inp = KeyValueSet([(b"a b", b"")] * (SAMPLE_CAP_RECORDS + 500))
        stats = profile_input(_spec(), inp)
        assert stats.records == SAMPLE_CAP_RECORDS + 500
        assert stats.sampled <= SAMPLE_CAP_RECORDS

    def test_byte_cap(self):
        # 8 KiB records: the byte cap binds long before the record cap.
        inp = KeyValueSet([(b"k", b"v" * 8192)] * 1000)
        stats = profile_input(_spec(), inp)
        assert stats.sampled < 1000
        assert stats.sampled * 8193 <= SAMPLE_CAP_BYTES + 8193

    def test_empty_input(self):
        stats = profile_input(_spec(), KeyValueSet([]))
        assert stats.records == 0
        assert stats.sampled == 0
        assert stats.emissions_per_record == 0

    def test_extrapolates_counts(self):
        inp = KeyValueSet([(b"x y z", b"")] * 50)
        stats = profile_input(_spec(), inp)
        assert stats.emissions_per_record == 3.0

    def test_memoised_by_content(self):
        inp = KeyValueSet([(b"a b", b"")] * 50)
        first = profile_input(_spec(), inp)
        again = profile_input(_spec(), inp)
        assert again is first  # digest-keyed cache hit


class TestOverheadGuard:
    def test_autotune_overhead_under_5_percent(self):
        """mode="auto" on a tiny input stays within 5% of the wall
        time of running the exact configuration it picked.

        The guard pins the engineering that makes the tuner free-ish:
        the bounded sample profile (memoised by content digest) and
        the mtime-cached calibration parse.  Interleaved min-of-N
        keeps shared-runner jitter out of the comparison.
        """
        from repro.workloads import WordCount

        w = WordCount()
        inp = w.generate("small", seed=0, scale=0.2)
        spec = w.spec_for_size("small", seed=0, scale=0.2)
        # Pin the sim backend (the default): under REPRO_BACKEND=dist:2
        # this input runs in-process on fast in ~4 ms, against which no
        # tuner fits in 5%.
        kw = dict(config=DeviceConfig.small(2), backend="sim")
        first = run_job(spec, inp, mode="auto", strategy="TR", **kw)
        choice = first.map_stats.extra["tuner_choice"]
        tpb = int(choice.rsplit("@", 1)[1].split()[0])

        auto_walls, fixed_walls = [], []
        for _ in range(7):
            t0 = time.perf_counter()
            run_job(spec, inp, mode="auto", strategy="TR", **kw)
            auto_walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_job(spec, inp, mode=first.mode, strategy=first.strategy,
                    threads_per_block=tpb, **kw)
            fixed_walls.append(time.perf_counter() - t0)
        overhead = min(auto_walls) / min(fixed_walls) - 1.0
        assert overhead < 0.05, (
            f"tuner overhead {overhead:+.1%} (auto {min(auto_walls):.4f}s "
            f"vs fixed {min(fixed_walls):.4f}s for {choice})"
        )
