"""Tests for batched/streamed execution with transfer overlap."""

import struct

import pytest

from repro.backend import FastBackend
from repro.cpu_ref import normalised, reference_job
from repro.errors import FrameworkError
from repro.framework import KeyValueSet, MemoryMode, ReduceStrategy, run_job
from repro.framework.api import MapReduceSpec
from repro.framework.streaming import (
    run_streamed_job,
    split_batches,
)
from repro.gpu import DeviceConfig
from repro.workloads import WordCount

CFG = DeviceConfig.small(2)


def dup_map(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def make_input(n=200):
    return KeyValueSet(
        [(f"key{i:04d}".encode(), struct.pack("<I", i)) for i in range(n)]
    )


class TestSplitBatches:
    def test_partition_is_exact(self):
        inp = make_input(103)
        batches = split_batches(inp, 4)
        assert sum(len(b) for b in batches) == 103
        rejoined = [kv for b in batches for kv in b]
        assert rejoined == list(inp)

    def test_single_batch(self):
        inp = make_input(7)
        assert len(split_batches(inp, 1)) == 1

    def test_more_batches_than_records(self):
        inp = make_input(3)
        batches = split_batches(inp, 10)
        assert sum(len(b) for b in batches) == 3
        assert all(len(b) >= 1 for b in batches)

    def test_invalid_count(self):
        with pytest.raises(FrameworkError):
            split_batches(make_input(4), 0)


class TestStreamedJob:
    def test_map_only_output_matches_single_shot(self):
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        inp = make_input(150)
        single = run_job(spec, inp, mode=MemoryMode.SIO, config=CFG)
        streamed = run_streamed_job(spec, inp, n_batches=4,
                                    mode=MemoryMode.SIO, config=CFG)
        assert normalised(streamed.job.output) == normalised(single.output)

    def test_full_job_matches_oracle(self):
        wc = WordCount()
        inp = wc.generate("small", seed=1, scale=0.3)
        spec = wc.spec()
        ref = normalised(reference_job(spec, inp, ReduceStrategy.TR))
        streamed = run_streamed_job(
            spec, inp, n_batches=3, mode=MemoryMode.SO,
            strategy=ReduceStrategy.TR, config=CFG,
        )
        assert normalised(streamed.job.output) == ref

    def test_batch_traces_recorded(self):
        # backend pinned: per-batch upload/map cycles are sim-only.
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        streamed = run_streamed_job(spec, make_input(100), n_batches=4,
                                    config=CFG, backend="sim")
        assert len(streamed.batches) == 4
        assert sum(b.records for b in streamed.batches) == 100
        assert all(b.upload_cycles > 0 and b.map_cycles > 0
                   for b in streamed.batches)

    def test_overlap_saves_time(self):
        """Double buffering hides the smaller of (map, next upload)."""
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        streamed = run_streamed_job(spec, make_input(400), n_batches=4,
                                    config=CFG, backend="sim")
        assert streamed.pipelined_map_io < streamed.serial_map_io
        assert streamed.overlap_saving > 0

    def test_pipeline_model_bounds(self):
        """Pipelined time is bounded below by both total uploads and
        total map cycles (the classic pipeline bound)."""
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        s = run_streamed_job(spec, make_input(300), n_batches=5, config=CFG)
        total_up = sum(b.upload_cycles for b in s.batches)
        total_map = sum(b.map_cycles for b in s.batches)
        assert s.pipelined_map_io >= max(total_up, total_map) - 1e-6
        assert s.pipelined_map_io <= s.serial_map_io + 1e-6

    def test_no_overlap_mode(self):
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        s = run_streamed_job(spec, make_input(100), n_batches=2,
                             overlap=False, config=CFG)
        t = s.job.timings
        assert t.io_in + t.map == pytest.approx(s.serial_map_io)

    def test_empty_input_streams_empty_output(self):
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        s = run_streamed_job(spec, KeyValueSet(), config=CFG)
        assert len(s.job.output) == 0
        assert s.batches == []

    @pytest.mark.parametrize("n_batches", [0, -2])
    def test_bad_batch_count_rejected_before_open(self, n_batches):
        class CountingBackend(FastBackend):
            opens = 0

            def open(self, plan):
                CountingBackend.opens += 1
                return super().open(plan)

        spec = MapReduceSpec(name="dup", map_record=dup_map)
        with pytest.raises(FrameworkError, match="n_batches"):
            run_streamed_job(spec, make_input(8), n_batches=n_batches,
                             backend=CountingBackend())
        assert CountingBackend.opens == 0

    def test_single_batch_equals_job_shape(self):
        spec = MapReduceSpec(name="dup", map_record=dup_map)
        s = run_streamed_job(spec, make_input(64), n_batches=1, config=CFG)
        assert s.pipelined_map_io == s.serial_map_io
