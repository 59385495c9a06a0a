"""Tests for the iterative-job driver."""

import struct

import numpy as np
import pytest

from repro.errors import FrameworkError
from repro.framework import KeyValueSet, MemoryMode, ReduceStrategy
from repro.framework.pipeline import IterativeJob
from repro.gpu import DeviceConfig
from repro.workloads.datagen import clustered_vectors
from repro.workloads.kmeans import (
    DIM,
    km_combine,
    km_finalize,
    km_map,
    km_reduce,
)
from repro.framework.api import MapReduceSpec

CFG = DeviceConfig.small(2)


def km_spec(centroids: np.ndarray) -> MapReduceSpec:
    return MapReduceSpec(
        name="km_iter",
        map_record=km_map,
        reduce_record=km_reduce,
        combine=km_combine,
        finalize=km_finalize,
        const_bytes=centroids.astype("<f4").tobytes(),
    )


def fold(result, centroids: np.ndarray) -> np.ndarray:
    new = centroids.copy()
    for key, val in result.output:
        cid = struct.unpack("<I", key)[0]
        new[cid] = np.frombuffer(val, dtype="<f4")
    return new


def make_job(**kw):
    defaults = dict(
        make_spec=lambda i, c: km_spec(c),
        update=lambda i, r, c: fold(r, c),
        converged=lambda i, old, new: float(np.abs(new - old).max()) < 1e-4,
        mode=MemoryMode.SI,
        strategy=ReduceStrategy.TR,
        config=CFG,
    )
    defaults.update(kw)
    return IterativeJob(**defaults)


def km_problem(n=160, k=4, seed=11):
    vecs, _ = clustered_vectors(n, dim=DIM, k=k, seed=seed, spread=0.05)
    inp = KeyValueSet((b"", v.tobytes()) for v in vecs)
    init = vecs[:k].copy()
    return vecs, inp, init


class TestIterativeJob:
    def test_converges(self):
        vecs, inp, init = km_problem()
        res = make_job().run(inp, init, max_iterations=25)
        assert res.converged
        assert 1 <= res.n_iterations <= 25
        assert res.total_cycles > 0
        # Final centroids sit inside the data hull.
        final = res.state
        assert final.min() >= vecs.min() - 1e-5
        assert final.max() <= vecs.max() + 1e-5

    def test_quality_improves(self):
        vecs, inp, init = km_problem()
        res = make_job().run(inp, init, max_iterations=25)

        def cost(cents):
            d = np.linalg.norm(vecs[:, None, :] - cents[None], axis=2)
            return float(d.min(axis=1).mean())

        assert cost(res.state) <= cost(init) + 1e-9

    def test_max_iterations_bound(self):
        _, inp, init = km_problem()
        job = make_job(converged=lambda i, a, b: False)  # never converge
        res = job.run(inp, init, max_iterations=3)
        assert not res.converged
        assert res.n_iterations == 3

    def test_traces_and_last(self):
        _, inp, init = km_problem()
        res = make_job().run(inp, init, max_iterations=5)
        assert [t.index for t in res.iterations] == list(range(res.n_iterations))
        assert res.last is not None
        assert res.last.strategy is ReduceStrategy.TR

    def test_invalid_iteration_count(self):
        _, inp, init = km_problem()
        with pytest.raises(FrameworkError):
            make_job().run(inp, init, max_iterations=0)

    def test_br_strategy_loop(self):
        _, inp, init = km_problem(n=96)
        res = make_job(strategy=ReduceStrategy.BR, mode=MemoryMode.SIO).run(
            inp, init, max_iterations=6
        )
        assert res.n_iterations >= 1

    def test_iteration_traces_preserve_phase_timings(self):
        """Each IterationTrace carries the iteration's full per-phase
        breakdown, not just the total (phase-level convergence traces)."""
        _, inp, init = km_problem()
        # backend pinned: per-phase cycle counts are the simulator's.
        res = make_job(backend="sim").run(inp, init, max_iterations=3)
        for t in res.iterations:
            assert t.timings.total == pytest.approx(t.cycles)
            phases = t.phase_dict()
            assert set(phases) == {
                "io_in", "map", "shuffle", "reduce", "io_out", "total"}
            # A KMeans iteration exercises every phase.
            for phase in ("io_in", "map", "shuffle", "reduce", "io_out"):
                assert phases[phase] > 0

    def test_iterative_tracer_spans(self):
        from repro.obs import Tracer

        _, inp, init = km_problem()
        tr = Tracer(kernel_detail=False)
        res = make_job().run(inp, init, max_iterations=3, tracer=tr)
        root = tr.roots[0]
        assert root.name == "iterative_job"
        iter_spans = [s for s in root.children if s.name.startswith("iteration[")]
        assert len(iter_spans) == res.n_iterations
        # Each iteration span holds the job span, which holds the phases.
        job_span = iter_spans[0].children[0]
        assert job_span.name.startswith("job:")
        names = [c.name for c in job_span.children]
        assert names == ["io_in", "map", "shuffle", "reduce", "io_out"]
        if res.converged:
            assert any(e.name == "converged" for e in tr.instants)

    def test_tuned_iterations_hash_the_input_once(self, monkeypatch):
        """The tuner and the ledger read each iteration's input digest
        from the record set's memo: five tuned KMeans iterations over
        one input hash it once."""
        from dataclasses import replace

        from repro.framework import records
        from repro.obs.ledger import ledger_path, read_ledger
        from repro.workloads.kmeans import km_map_batch, km_reduce_batch

        hashed = []
        hash_columns = records.hash_columns

        def counting_hash(*args):
            hashed.append(args[0])
            return hash_columns(*args)

        monkeypatch.setattr(records, "hash_columns", counting_hash)
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        _, inp, init = km_problem()
        job = make_job(
            make_spec=lambda i, c: replace(
                km_spec(c), map_batch=km_map_batch,
                reduce_batch=km_reduce_batch),
            converged=lambda i, old, new: False,
            mode=None, config=None)
        res = job.run(inp, init, max_iterations=5)
        assert res.n_iterations == 5
        assert hashed == [len(inp)]
        runs = list(read_ledger(ledger_path()))
        assert [r["tuned"] for r in runs] == [True] * 5
        assert {r["input_digest"] for r in runs} == {inp.digest}
