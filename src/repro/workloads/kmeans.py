"""KMeans (KM): one clustering iteration as MapReduce.

"Each Map task takes one vector and calculates its distance to K
centroid vectors of existing clusters, and then emits as an
intermediate result the id of the nearest cluster and the vector
itself.  Each Reduce task takes one cluster, and computes its new
centroid" (Section IV-B).

Table II shapes: input key empty, input value a 32-byte vector
(8 x f32); intermediate key = 4-byte cluster id, value = the vector;
Reduce ratio = vectors per cluster (huge).  The Map function re-reads
the input vector once per centroid — the "strong access locality"
that makes staged input shine — while the K centroids live in the
constant region (global memory, or the texture cache under GT, which
is why "the GT mode wins" for KM-M).
"""

from __future__ import annotations

import struct

import numpy as np

from ..framework.api import MapReduceSpec
from ..framework.columns import Column, ColumnBatch
from ..framework.records import KeyValueSet
from .base import ProblemSize, Workload
from .datagen import clustered_vectors

DIM = 8
VEC_BYTES = 4 * DIM


def km_map(key, value, emit, const) -> None:
    """Assign the vector (value) to its nearest centroid."""
    n_centroids = len(const) // VEC_BYTES
    best = -1
    best_d = np.inf
    for c in range(n_centroids):
        # Re-read the input vector for each centroid: the access
        # locality Section IV-D highlights.
        vec = value.f32_array(0, DIM)
        cen = const.f32_array(c * VEC_BYTES, DIM)
        d = float(((vec - cen) ** 2).sum())
        if d < best_d:
            best_d = d
            best = c
    emit(struct.pack("<I", best), value.to_bytes())


#: Bytes of one (K, block) f32 distance temporary in
#: :func:`km_map_batch`: four of them stay in a core's L2.
_BLOCK_BYTES = 64 * 1024


def _squares_pair(v, cen_cols, k, out, tmp) -> None:
    """``out = q[k] + q[k + 1]`` in place, where
    ``q[j] = (v[j] - cen[:, j]) ** 2``."""
    for j, buf in ((k, out), (k + 1, tmp)):
        np.subtract(v[j], cen_cols[j], out=buf)
        np.multiply(buf, buf, out=buf)
    out += tmp


def km_map_batch(cols, *, const=None):
    """Vectorized Map: a blocked distance kernel + argmin.

    The vectors are transposed once to ``vt`` (DIM, n) and walked in
    blocks of ``_BLOCK_BYTES // (4 * K)`` columns (1024 at K=16), so
    each (K, block) f32 temporary stays in cache.  Per block, the
    eight per-dimension rows ``q[k] = (v[k] - cen[:, k]) ** 2`` are
    added as ``((q0+q1)+(q2+q3))+((q4+q5)+(q6+q7))``: numpy's 8-lane
    pairwise order, the one the scalar ``((vec - cen) ** 2).sum()``
    of :func:`km_map` takes over 8 contiguous f32 values.  ``argmin``
    over the centroid axis returns the *first* minimum, matching the
    scalar strict-``<`` first-wins update, so the output is
    byte-identical to :func:`km_map`.

    Declines (returns None) on ragged/odd-width values, a missing
    centroid table, or a vector whose nearest distance is NaN or
    infinite in any block — the scalar loop then reproduces the exact
    legacy behaviour, error cases included (its ``<`` never accepts a
    NaN, and an all-infinite row leaves it no centroid to emit).
    """
    if cols.values.fixed_width != VEC_BYTES or not const:
        return None
    n_centroids = len(const) // VEC_BYTES
    if n_centroids == 0:
        return None
    vt = np.ascontiguousarray(cols.values.fixed_array("<f4").T)
    cens = np.frombuffer(
        const[: n_centroids * VEC_BYTES], dtype="<f4"
    ).reshape(n_centroids, DIM)
    cen_cols = [np.ascontiguousarray(cens[:, k, None]) for k in range(DIM)]
    n = vt.shape[1]
    block = min(n, max(1, _BLOCK_BYTES // (4 * n_centroids)))
    bufs = np.empty((4, n_centroids, block), dtype="<f4")
    lanes = np.arange(block)
    best = np.empty(n, dtype="<u4")
    for start in range(0, n, block):
        v = vt[:, start:start + block]
        w = v.shape[1]
        a, b, c, t = (buf[:, :w] for buf in bufs)
        _squares_pair(v, cen_cols, 0, a, t)
        _squares_pair(v, cen_cols, 2, b, t)
        a += b
        _squares_pair(v, cen_cols, 4, b, t)
        _squares_pair(v, cen_cols, 6, c, t)
        b += c
        a += b  # ((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))
        nearest = a.argmin(axis=0)
        # argmin returns a column's first NaN, so one finite check on
        # the chosen distances catches NaN and all-infinite columns.
        if not np.isfinite(a[nearest, lanes[:w]]).all():
            return None
        best[start:start + w] = nearest
    return ColumnBatch(Column.from_array(best), cols.values)


def km_reduce(key, values, emit, const) -> None:
    """TR reduce: new centroid = mean of the cluster's vectors."""
    acc = np.zeros(DIM, dtype=np.float64)
    for v in values:
        acc += v.f32_array(0, DIM)
    mean = (acc / max(1, len(values))).astype("<f4")
    emit(key.to_bytes(), mean.tobytes())


def km_reduce_batch(keys, offsets, values, *, const=None):
    """Vectorized TR reduce: per-group f64 ``reduceat`` sums -> mean.

    ``np.add.reduceat`` accumulates sequentially, matching the scalar
    ``acc += vec`` loop bit for bit; the final ``astype("<f4")`` is
    the same rounding :func:`km_reduce` applies.
    """
    if values.fixed_width != VEC_BYTES:
        return None
    arr = values.fixed_array("<f4").astype(np.float64)
    sums = np.add.reduceat(arr, offsets[:-1], axis=0)
    counts = np.diff(offsets)
    mean = (sums / counts[:, None]).astype("<f4")
    return ColumnBatch(keys, Column.from_array(mean))


def km_combine(a: bytes, b: bytes) -> bytes:
    """BR combine: elementwise vector sum."""
    va = np.frombuffer(a, dtype="<f4")
    vb = np.frombuffer(b, dtype="<f4")
    return (va.astype(np.float64) + vb.astype(np.float64)).astype("<f4").tobytes()


def km_finalize(key: bytes, acc: bytes, count: int) -> tuple[bytes, bytes]:
    """Divide the summed vector by the cluster population."""
    v = np.frombuffer(acc, dtype="<f4").astype(np.float64) / max(1, count)
    return key, v.astype("<f4").tobytes()


class KMeans(Workload):
    code = "KM"
    title = "KMeans"
    has_reduce = True

    def __init__(self, *, k: int = 16):
        self.k = k
        self._centroids: dict[int, bytes] = {}

    def spec(self) -> MapReduceSpec:
        # Constant region: the K current centroids.  Deterministic per
        # seed; generate() caches them.
        const = self._centroids.get(0)
        if const is None:
            _, init = clustered_vectors(1, dim=DIM, k=self.k, seed=0)
            const = init.tobytes()
            self._centroids[0] = const
        return MapReduceSpec(
            name="kmeans",
            map_record=km_map,
            reduce_record=km_reduce,
            map_batch=km_map_batch,
            reduce_batch=km_reduce_batch,
            combine=km_combine,
            finalize=km_finalize,
            const_bytes=const,
            io_ratio=0.5,
            cycles_per_record=32.0,
            cycles_per_access=6.0,
            out_bytes_factor=3.0,
            out_records_factor=4.0,
        )

    def sizes(self) -> dict[str, ProblemSize]:
        # Paper: 4 / 16 / 64 MB of vectors; scaled ~256x down.  The
        # value is the vector count (x 32 B each).
        return {
            "small": ProblemSize("small", 512, "4MB"),
            "medium": ProblemSize("medium", 2048, "16MB"),
            "large": ProblemSize("large", 8192, "64MB"),
        }

    def generate(self, size: str = "small", *, seed: int = 0, scale: float = 1.0
                 ) -> KeyValueSet:
        n = self.size_value(size, scale)
        vecs, init = clustered_vectors(n, dim=DIM, k=self.k, seed=seed)
        self._centroids[seed] = init.tobytes()
        out = KeyValueSet()
        for v in vecs:
            out.append(b"", v.tobytes())
        return out

    def spec_for_seed(self, seed: int) -> MapReduceSpec:
        """Spec whose centroids match ``generate(seed=seed)``."""
        if seed not in self._centroids:
            self.generate("small", seed=seed)
        spec = self.spec()
        spec.const_bytes = self._centroids[seed]
        return spec
