"""Correctness tests for the five workloads against the CPU oracle.

Every workload's Map (and Reduce, where present) runs on the simulated
GPU under every applicable memory mode and must reproduce the CPU
reference output exactly (KMeans: to float32 tolerance, since record
order — and hence summation order — legitimately differs between
modes).
"""

import struct

import numpy as np
import pytest

from repro.cpu_ref import normalised, reference_job
from repro.framework import MemoryMode, ReduceStrategy, run_job
from repro.framework.columns import ColumnBatch
from repro.framework.records import KeyValueSet
from repro.gpu import DeviceConfig
from repro.gpu.accessor import host_accessor
from repro.workloads import (
    ALL_WORKLOADS,
    InvertedIndex,
    KMeans,
    MatrixMultiplication,
    StringMatch,
    WordCount,
)
from repro.workloads.wordcount import wc_map, wc_map_batch

CFG = DeviceConfig.small(2)
MODES = list(MemoryMode)


def approx_equal_kv(got, want, float_vals=False):
    got, want = normalised(got), normalised(want)
    if not float_vals:
        return got == want
    if len(got) != len(want):
        return False
    for (gk, gv), (wk, wv) in zip(got, want):
        if gk != wk or len(gv) != len(wv):
            return False
        a = np.frombuffer(gv, dtype="<f4")
        b = np.frombuffer(wv, dtype="<f4")
        if not np.allclose(a, b, rtol=1e-4, atol=1e-5):
            return False
    return True


class TestWorkloadMetadata:
    def test_all_five_present(self):
        codes = [cls().code for cls in ALL_WORKLOADS]
        assert codes == ["WC", "MM", "SM", "II", "KM"]

    def test_three_sizes_each(self):
        for cls in ALL_WORKLOADS:
            sizes = cls().sizes()
            assert set(sizes) == {"small", "medium", "large"}

    def test_reduce_flags_match_table2(self):
        """Table II: only WC and KM have a Reduce phase."""
        has = {cls().code: cls().has_reduce for cls in ALL_WORKLOADS}
        assert has == {"WC": True, "MM": False, "SM": False, "II": False,
                       "KM": True}

    def test_table1_rows(self):
        row = WordCount().table1_row()
        assert "Word Count" in row[0]
        assert "16MB" in row[1]


class TestWordCount:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_map_reduce_matches_oracle(self, mode):
        wc = WordCount()
        inp = wc.generate("small", seed=1, scale=0.2)
        spec = wc.spec()
        ref = reference_job(spec, inp, ReduceStrategy.TR)
        res = run_job(spec, inp, mode=mode, strategy=ReduceStrategy.TR,
                      config=CFG, threads_per_block=128)
        assert approx_equal_kv(res.output, ref)

    def test_counts_are_correct(self):
        wc = WordCount()
        inp = wc.generate("small", seed=2, scale=0.1)
        total_words = sum(
            len([w for w in k.split(b" ") if w]) for k in inp.keys
        )
        res = run_job(wc.spec(), inp, mode=MemoryMode.G,
                      strategy=ReduceStrategy.TR, config=CFG)
        counted = sum(struct.unpack("<I", v)[0] for v in res.output.values)
        assert counted == total_words

    @pytest.mark.parametrize("lines", [
        [b"the cat", b"  lead", b"trail  ", b"a  b   a", b"", b" ",
         b"tab\there x\t", b"caf\xc3\xa9 \xff\x00 na\xefve", b"the"],
        [b"", b"   "],
    ], ids=["mixed", "blank"])
    def test_map_batch_emits_the_scalar_pair_stream(self, lines):
        want = KeyValueSet()
        for i, line in enumerate(lines):
            wc_map(host_accessor(line), host_accessor(struct.pack("<I", i)),
                   want.append, None)
        cols = ColumnBatch.from_lists(
            lines, [struct.pack("<I", i) for i in range(len(lines))])
        assert list(wc_map_batch(cols).to_kvs()) == list(want)

    def test_br_matches_tr(self):
        wc = WordCount()
        inp = wc.generate("small", seed=3, scale=0.1)
        tr = run_job(wc.spec(), inp, mode=MemoryMode.G,
                     strategy=ReduceStrategy.TR, config=CFG)
        br = run_job(wc.spec(), inp, mode=MemoryMode.G,
                     strategy=ReduceStrategy.BR, config=CFG)
        assert normalised(tr.output) == normalised(br.output)


class TestStringMatch:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_matches_oracle(self, mode):
        sm = StringMatch()
        inp = sm.generate("small", seed=1, scale=0.2)
        spec = sm.spec()
        ref = reference_job(spec, inp)
        res = run_job(spec, inp, mode=mode, config=CFG, threads_per_block=128)
        assert approx_equal_kv(res.output, ref)

    def test_positions_are_exact(self):
        sm = StringMatch()
        inp = sm.generate("small", seed=2, scale=0.1)
        res = run_job(sm.spec(), inp, mode=MemoryMode.SIO, config=CFG)
        lines = {struct.unpack("<I", v)[0]: k for k, v in inp}
        for line_id_b, pos_b in res.output:
            line_id = struct.unpack("<I", line_id_b)[0]
            pos = struct.unpack("<I", pos_b)[0]
            assert lines[line_id][pos:pos + 6] == b"needle"

    def test_match_count_plausible(self):
        sm = StringMatch()
        inp = sm.generate("small", seed=3, scale=0.3)
        res = run_job(sm.spec(), inp, mode=MemoryMode.G, config=CFG)
        ratio = len(inp) / max(1, len(res.output))
        assert 2.5 < ratio < 6.0  # Table II: 3.83:1


class TestInvertedIndex:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_matches_oracle(self, mode):
        ii = InvertedIndex()
        inp = ii.generate("small", seed=1, scale=0.2)
        spec = ii.spec()
        ref = reference_job(spec, inp)
        res = run_job(spec, inp, mode=mode, config=CFG, threads_per_block=128)
        assert approx_equal_kv(res.output, ref)

    def test_links_start_with_http(self):
        ii = InvertedIndex()
        inp = ii.generate("small", seed=2, scale=0.2)
        res = run_job(ii.spec(), inp, mode=MemoryMode.SI, config=CFG)
        assert len(res.output) > 0
        assert all(k.startswith(b"http://") for k in res.output.keys)


class TestKMeans:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_tr_matches_oracle(self, mode):
        km = KMeans()
        inp = km.generate("small", seed=1, scale=0.5)
        spec = km.spec_for_seed(1)
        ref = reference_job(spec, inp, ReduceStrategy.TR)
        res = run_job(spec, inp, mode=mode, strategy=ReduceStrategy.TR,
                      config=CFG, threads_per_block=128)
        assert approx_equal_kv(res.output, ref, float_vals=True)

    def test_br_matches_oracle(self):
        km = KMeans()
        inp = km.generate("small", seed=2, scale=0.5)
        spec = km.spec_for_seed(2)
        ref = reference_job(spec, inp, ReduceStrategy.BR)
        res = run_job(spec, inp, mode=MemoryMode.SIO,
                      strategy=ReduceStrategy.BR, config=CFG,
                      threads_per_block=128)
        assert approx_equal_kv(res.output, ref, float_vals=True)

    def test_centroids_move_toward_truth(self):
        """One MapReduce iteration improves centroid positions."""
        km = KMeans(k=4)
        inp = km.generate("small", seed=3, scale=0.5)
        spec = km.spec_for_seed(3)
        res = run_job(spec, inp, mode=MemoryMode.G,
                      strategy=ReduceStrategy.TR, config=CFG)
        vecs = np.array([np.frombuffer(v, dtype="<f4") for v in inp.values])
        old = np.frombuffer(spec.const_bytes, dtype="<f4").reshape(-1, 8)
        new = np.array(
            [np.frombuffer(v, dtype="<f4") for v in res.output.values]
        )
        # New centroids are means of real points: inside the data hull.
        assert new.min() >= vecs.min() - 1e-5
        assert new.max() <= vecs.max() + 1e-5
        assert len(new) <= len(old)


class TestMatrixMultiplication:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_matches_numpy(self, mode):
        mm = MatrixMultiplication()
        inp = mm.generate("small", seed=1)
        spec = mm.spec_for(16, seed=1)
        res = run_job(spec, inp, mode=mode, config=CFG, threads_per_block=64)
        want = mm.expected_product("small", seed=1)
        got = np.zeros((16, 16), dtype=np.float64)
        for k, v in res.output:
            i, j = struct.unpack("<II", k)
            got[i, j] = struct.unpack("<f", v)[0]
        assert np.allclose(got, want, rtol=1e-4)

    def test_stage_flags(self):
        spec = MatrixMultiplication().spec_for(16)
        assert spec.stage_values is False
        assert spec.const_bytes is not None
