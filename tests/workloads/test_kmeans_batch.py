"""KMeans' blocked batch Map against its scalar oracle.

``km_map_batch`` must emit exactly the pairs ``km_map`` emits, record
for record, or decline (return None) so the scalar loop runs instead.
The inputs stress what the blocked kernel could get wrong: f32
magnitudes from 1e-8 to 1e8 (where summation order shows in the last
bit), exact ties between centroids (duplicates, and permuted rows
against a constant vector, where rounding alone picks the winner),
±inf and NaN, K from 1 to 40, and batch lengths below, at, and off
a multiple of the block size.
"""

import struct

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.framework.columns import Column, ColumnBatch  # noqa: E402
from repro.gpu.accessor import host_accessor  # noqa: E402
from repro.workloads.kmeans import (  # noqa: E402
    _BLOCK_BYTES,
    DIM,
    km_map,
    km_map_batch,
)

magnitude = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
              st.floats(1.0, 9.99), st.integers(-8, 7),
              st.sampled_from([1.0, -1.0])),
)
vector = st.one_of(
    st.lists(magnitude, min_size=DIM, max_size=DIM),
    # Nearby magnitudes: permuting these changes the rounded sum.
    st.lists(st.sampled_from([0.001, 0.1, 1.0, 2.0, 3.0, 7.0, 11.0]),
             min_size=DIM, max_size=DIM),
    magnitude.map(lambda x: [x] * DIM),  # ties permuted centroids
)


# Two orders of the same squares: numpy's pairwise addition puts the
# first row nearer the origin, left-to-right addition the second.
ORDER_SENSITIVE = np.array([[3.0, 3.0, 0.1, 7.0, 11.0, 0.001, 3.0, 2.0],
                            [3.0, 7.0, 11.0, 2.0, 3.0, 0.1, 0.001, 3.0]],
                           dtype="<f4")


def block_of(k):
    return max(1, _BLOCK_BYTES // (4 * k))


@st.composite
def centroid_tables(draw):
    """K rows drawn from a few base rows, some permuted: duplicates
    tie exactly, and permutations tie up to rounding — against a
    constant vector, only the summation order picks the winner."""
    base = draw(st.lists(vector, min_size=1, max_size=6))
    permute = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        row = draw(st.sampled_from(base))
        if permute and draw(st.floats(0, 1)) < permute:
            row = draw(st.permutations(row))
        rows.append(row)
    return np.array(rows, dtype="<f4")


@st.composite
def cases(draw):
    cens = draw(centroid_tables())
    block = block_of(len(cens))
    n = draw(st.one_of(
        st.sampled_from([1, block - 1, block, block + 1, 2 * block,
                         2 * block + 7]),
        st.integers(1, 3 * block),
    ))
    pool = np.array(draw(st.lists(vector, min_size=1, max_size=7)),
                    dtype="<f4")
    vecs = np.resize(pool, (n, DIM))
    special = draw(st.none() | st.tuples(
        st.sampled_from(["vec", "cen"]),
        st.sampled_from([np.inf, -np.inf, np.nan]),
        st.integers(0, 10**6), st.integers(0, DIM - 1)))
    if special is not None:
        where, value, row, dim = special
        table = vecs if where == "vec" else cens
        table[row % len(table), dim] = value
    return vecs, cens


def scalar_pairs(vecs, cens):
    """``km_map`` over every vector (memoised per distinct vector: it
    is a pure function of the vector and the table)."""
    const = host_accessor(cens.tobytes())
    memo: dict[bytes, list] = {}
    out = []
    for row in vecs:
        raw = row.tobytes()
        if raw not in memo:
            got = memo[raw] = []
            km_map(host_accessor(b""), host_accessor(raw),
                   lambda k, v, _o=got: _o.append((k, v)), const)
        out += memo[raw]
    return out


def batch_pairs(vecs, cens):
    cols = ColumnBatch(Column.repeated(b"", len(vecs)),
                       Column.from_array(vecs))
    res = km_map_batch(cols, const=cens.tobytes())
    return None if res is None else list(res.to_kvs())


def check_against_scalar(vecs, cens):
    got = batch_pairs(vecs, cens)
    try:
        want = scalar_pairs(vecs, cens)
    except struct.error:
        # Every distance of some vector is inf/NaN: the scalar loop
        # finds no centroid and fails to pack -1; only it may say so.
        assert got is None
        return
    if np.isnan(vecs).any() or np.isnan(cens).any():
        assert got is None, "a NaN distance must decline the batch"
    else:
        assert got is not None, "a batch of finite distances must run"
        assert got == want


@settings(max_examples=150, deadline=None)
@given(cases())
@example((np.zeros((4, DIM), dtype="<f4"), ORDER_SENSITIVE))
def test_batch_map_equals_scalar_map(case):
    check_against_scalar(*case)


@pytest.mark.parametrize("k", [1, 16, 40])
@pytest.mark.parametrize("shape", ["below", "at", "off"])
def test_block_edges(k, shape):
    block = block_of(k)
    n = {"below": block - 1, "at": 2 * block, "off": 2 * block + 3}[shape]
    rng = np.random.default_rng(k)
    cens = (rng.standard_normal((k, DIM)) * 10).astype("<f4")
    vecs = (rng.standard_normal((n, DIM)) * 10).astype("<f4")
    check_against_scalar(vecs, cens)


def test_first_centroid_wins_an_exact_tie():
    cens = np.array([[1.0] * DIM, [2.0] * DIM, [1.0] * DIM], dtype="<f4")
    vecs = np.zeros((5, DIM), dtype="<f4")
    got = batch_pairs(vecs, cens)
    assert got == scalar_pairs(vecs, cens)
    assert {k for k, _ in got} == {struct.pack("<I", 0)}


def test_distances_sum_in_numpy_pairwise_order():
    vecs = np.zeros((4, DIM), dtype="<f4")
    got = batch_pairs(vecs, ORDER_SENSITIVE)
    assert got == scalar_pairs(vecs, ORDER_SENSITIVE)
    assert {k for k, _ in got} == {struct.pack("<I", 0)}


def test_nan_in_the_last_block_declines_the_batch():
    k = 16
    n = 2 * block_of(k) + 1
    rng = np.random.default_rng(3)
    cens = rng.standard_normal((k, DIM)).astype("<f4")
    vecs = rng.standard_normal((n, DIM)).astype("<f4")
    vecs[-1, 5] = np.nan
    assert batch_pairs(vecs, cens) is None


def test_infinite_centroid_is_skipped_not_declined():
    cens = np.array([[np.inf] * DIM, [0.5] * DIM], dtype="<f4")
    vecs = np.ones((3, DIM), dtype="<f4")
    got = batch_pairs(vecs, cens)
    assert got == scalar_pairs(vecs, cens)
    assert {k for k, _ in got} == {struct.pack("<I", 1)}
