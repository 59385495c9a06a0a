"""The columnar fast backend: selection, batching, fallback, parity.

Covers what the cross-backend differential matrix does not: how the
columnar path is *selected* (constructor, the ``"columnar"``
registry name and ``$REPRO_BACKEND``), the batch-kernel decline contract
(None -> per-batch scalar fallback), kernels that exist on only one
side (batch Map + scalar Reduce and vice versa), the batch-width env,
streamed and Mars jobs under columnar, and the observability counters
(KernelStats extras + ledger fields).
"""

import dataclasses

import pytest

from repro.backend import BACKENDS, ColumnarBackend, FastBackend, get_backend
from repro.errors import FrameworkError
from repro.framework import ReduceStrategy, run_job, run_streamed_job
from repro.framework.api import MapReduceSpec
from repro.framework.columns import Column, ColumnBatch
from repro.framework.records import KeyValueSet
from repro.workloads import Histogram, KMeans, WordCount


COLUMNAR_BATCH_ENV = "REPRO_COLUMNAR_BATCH"


def _ident(key, value, emit, const):
    emit(key.to_bytes(), value.to_bytes())


def _count(key, values, emit, const):
    emit(key.to_bytes(), len(values).to_bytes(4, "little"))


def _inp(n=100, keys=5):
    out = KeyValueSet()
    for i in range(n):
        out.append(b"k%02d" % (i % keys), i.to_bytes(4, "little"))
    return out


class TestSelection:
    def test_registry_has_columnar(self):
        assert "columnar" in BACKENDS
        be = get_backend("columnar")
        assert isinstance(be, ColumnarBackend)
        assert be.columnar is True

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        spec = MapReduceSpec(name="t", map_record=_ident,
                             reduce_record=_count)
        scalar = run_job(spec, _inp(), strategy=ReduceStrategy.TR,
                         backend=FastBackend(columnar=False))
        env = run_job(spec, _inp(), strategy=ReduceStrategy.TR)
        assert "columnar_batches" in env.map_stats.extra
        assert "columnar_batches" not in scalar.map_stats.extra
        assert env.output == scalar.output

    def test_bad_batch_env_rejected(self, monkeypatch):
        monkeypatch.setenv(COLUMNAR_BATCH_ENV, "zero")
        with pytest.raises(FrameworkError):
            run_job(MapReduceSpec(name="t", map_record=_ident), _inp(4),
                    backend=FastBackend(columnar=True))
        monkeypatch.setenv(COLUMNAR_BATCH_ENV, "0")
        with pytest.raises(FrameworkError):
            run_job(MapReduceSpec(name="t", map_record=_ident), _inp(4),
                    backend=FastBackend(columnar=True))

    def test_batch_width_env_splits_batches(self, monkeypatch):
        monkeypatch.setenv(COLUMNAR_BATCH_ENV, "16")
        spec = MapReduceSpec(name="t", map_record=_ident,
                             reduce_record=_count)
        res = run_job(spec, _inp(100), strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True))
        assert res.map_stats.extra["columnar_batches"] == 7  # ceil(100/16)
        scalar = run_job(spec, _inp(100), strategy=ReduceStrategy.TR,
                         backend="fast")
        assert res.output == scalar.output


class TestBatchKernelContract:
    """The columnar runs pin the memory store: a spilling shuffle
    streams its groups to the scalar Reduce loop, so the batch-kernel
    contract under test would not engage (the suite also runs under
    REPRO_STORE=spill)."""

    def test_map_batch_only_with_scalar_reduce(self):
        """Regression: a spec with map_batch but no reduce_batch mixes
        the vectorized Map with the scalar Reduce loop over
        GroupedColumns — this seam once had no direct coverage."""

        def map_batch(cols, *, const=None):
            return cols  # identity, columnar

        spec = MapReduceSpec(name="mixed", map_record=_ident,
                             reduce_record=_count, map_batch=map_batch)
        inp = _inp(200)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(spec, inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] >= 1
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0

    def test_reduce_batch_only_with_scalar_map(self):
        """WordCount without its batch Map: the scalar Map emits ragged
        keys, Reduce runs the batch kernel over the grouped columns."""
        spec = dataclasses.replace(WordCount().spec(), map_batch=None)
        inp = WordCount().generate("small", seed=2, scale=0.2)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(spec, inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] == 0
        assert col.map_stats.extra["columnar_map_fallback"] >= 1
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_wordcount_vectorizes_map_and_reduce(self):
        wl = WordCount()
        inp = wl.generate("small", seed=2, scale=0.2)
        col = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] >= 1
        assert col.map_stats.extra["columnar_map_fallback"] == 0
        assert (col.map_stats.extra["fast_records_out"]
                == scalar.map_stats.extra["fast_records_out"])
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_declining_map_batch_falls_back_per_batch(self, monkeypatch):
        monkeypatch.setenv(COLUMNAR_BATCH_ENV, "10")
        calls = []

        def map_batch(cols, *, const=None):
            calls.append(len(cols))
            if len(calls) % 2:
                return None  # decline odd batches
            return cols

        spec = MapReduceSpec(name="decline", map_record=_ident,
                             reduce_record=_count, map_batch=map_batch)
        inp = _inp(40)
        col = run_job(spec, inp, strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(spec, inp, strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.map_stats.extra["columnar_map_vectorized"] == 2
        assert col.map_stats.extra["columnar_map_fallback"] == 2

    def test_declining_reduce_batch_falls_back(self):
        def reduce_batch(keys, offsets, values, *, const=None):
            return None

        spec = MapReduceSpec(name="rdecline", map_record=_ident,
                             reduce_record=_count,
                             reduce_batch=reduce_batch)
        col = run_job(spec, _inp(50), strategy=ReduceStrategy.TR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(spec, _inp(50), strategy=ReduceStrategy.TR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0

    def test_bad_map_batch_return_type_rejected(self):
        spec = MapReduceSpec(name="bad", map_record=_ident,
                             map_batch=lambda cols, *, const=None: [1, 2])
        with pytest.raises(FrameworkError, match="map_batch"):
            run_job(spec, _inp(4), backend=FastBackend(columnar=True),
                    store="memory")

    def test_bad_reduce_batch_return_type_rejected(self):
        spec = MapReduceSpec(
            name="bad", map_record=_ident, reduce_record=_count,
            reduce_batch=lambda k, o, v, *, const=None: "nope",
        )
        with pytest.raises(FrameworkError, match="reduce_batch"):
            run_job(spec, _inp(4), strategy=ReduceStrategy.TR,
                    backend=FastBackend(columnar=True), store="memory")

    def test_reduce_batch_not_used_for_br(self):
        """BR folds stay scalar by contract even when a batch Reduce
        kernel exists — combine/finalize semantics differ from TR."""
        wl = Histogram()
        inp = wl.generate("small", seed=1, scale=0.2)
        col = run_job(wl.spec(), inp, strategy=ReduceStrategy.BR,
                      backend=FastBackend(columnar=True), store="memory")
        scalar = run_job(wl.spec(), inp, strategy=ReduceStrategy.BR,
                         backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 0


class TestJobShapes:
    def test_map_only_job(self):
        spec = MapReduceSpec(name="maponly", map_record=_ident)
        col = run_job(spec, _inp(60), backend=FastBackend(columnar=True))
        scalar = run_job(spec, _inp(60), backend="fast")
        assert col.output == scalar.output

    def test_streamed_job_columnar_tail(self):
        wl = WordCount()
        inp = wl.generate("small", seed=4, scale=0.2)
        col = run_streamed_job(wl.spec(), inp, n_batches=3,
                               strategy=ReduceStrategy.TR,
                               backend=FastBackend(columnar=True))
        scalar = run_streamed_job(wl.spec(), inp, n_batches=3,
                                  strategy=ReduceStrategy.TR,
                                  backend="fast")
        assert col.job.output == scalar.job.output

    def test_mars_job_columnar(self):
        from repro.mars.framework import run_mars_job

        wl = KMeans()
        inp = wl.generate("small", seed=6)
        spec = wl.spec_for_seed(6)
        # Memory store pinned: a spilling shuffle bypasses the batch
        # Reduce kernel this test counts.
        col = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                           backend=FastBackend(columnar=True),
                           store="memory")
        scalar = run_mars_job(spec, inp, strategy=ReduceStrategy.TR,
                              backend="fast")
        assert col.output == scalar.output
        assert col.reduce_stats.extra["columnar_reduce_vectorized"] == 1

    def test_dist_backend_stays_scalar(self):
        from repro.backend import DistributedBackend

        wl = WordCount()
        inp = wl.generate("small", seed=5, scale=0.2)
        dist = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                       backend=DistributedBackend(workers=2, min_records=0))
        scalar = run_job(wl.spec(), inp, strategy=ReduceStrategy.TR,
                         backend=FastBackend(columnar=False))
        assert dist.output == scalar.output
        assert "columnar_batches" not in dist.map_stats.extra


class TestLedgerColumns:
    def test_ledger_records_columnar_counters(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        wl = KMeans()
        inp = wl.generate("small", seed=3)
        # Memory store pinned: a spilling shuffle bypasses the batch
        # Reduce kernel whose counter the ledger must record.
        run_job(wl.spec_for_seed(3), inp, strategy=ReduceStrategy.TR,
                backend="columnar", store="memory")
        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        rec = json.loads(lines[-1])
        assert rec["columnar_batches"] >= 1
        assert rec["columnar_map_vectorized"] >= 1
        assert rec["columnar_reduce_vectorized"] == 1
        # A scalar run leaves the columnar fields null.
        run_job(wl.spec_for_seed(3), inp, strategy=ReduceStrategy.TR,
                backend="fast")
        rec2 = json.loads(
            (tmp_path / "runs.jsonl").read_text().splitlines()[-1]
        )
        assert rec2["columnar_batches"] is None


class TestWorkerCountValidation:
    def test_dist_n_rejects_bad_counts(self):
        for bad in ("dist:0", "dist:-2", "dist:two", "dist:"):
            with pytest.raises(FrameworkError):
                get_backend(bad)
        assert get_backend("dist:3").workers == 3
        # The retired fork-pool backend, bare and with worker counts.
        for retired in ("parallel", *(f"parallel:{n}" for n in (1, 2))):
            with pytest.raises(FrameworkError,
                               match="unknown backend; known: columnar, "
                                     "dist, fast, sim"):
                get_backend(retired)

    def test_workers_env_rejects_bad_values(self, monkeypatch):
        for bad in ("0", "-1", "abc", "1.5"):
            monkeypatch.setenv("REPRO_BACKEND", f"dist:{bad}")
            with pytest.raises(FrameworkError, match="REPRO_BACKEND"):
                get_backend(None)
        monkeypatch.setenv("REPRO_BACKEND", "dist:4")
        assert get_backend(None).workers == 4
