"""A list-built and a blob-built ``Column`` of the same items agree.

:class:`~repro.framework.columns.Column` holds either the Python list
it was built from or a concatenated ``blob`` plus per-record
``lengths``, and builds the other form on first use.  Every accessor
must read the same records whichever form it starts from, so each
check below builds fresh columns: a cache filled by one accessor must
not hide a wrong answer from another.
"""

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import FrameworkError  # noqa: E402
from repro.framework.columns import Column  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None)

#: The empty item, embedded and trailing NULs, bytes >= 0x80.
_hazards = st.sampled_from(
    [b"", b"\x00", b"a\x00", b"a\x00b", b"\x80", b"\xff\x00", b"a\xff"]
)
ragged_items = st.lists(st.one_of(_hazards, st.binary(max_size=12)),
                        max_size=40)


@st.composite
def fixed_items(draw):
    width = draw(st.integers(min_value=0, max_value=12))
    return draw(st.lists(st.binary(min_size=width, max_size=width),
                         max_size=40))


any_items = st.one_of(ragged_items, fixed_items())


def _blob_built(items):
    return Column(b"".join(items),
                  np.array([len(x) for x in items], dtype=np.int64))


def _forms(items):
    """Fresh list-built and blob-built columns of ``items``."""
    return Column.from_list(items), _blob_built(items)


def _indices(n):
    """Gather orders over ``n`` records: permutations, repeats, empty."""
    if n == 0:
        return st.just([])
    return st.one_of(st.permutations(range(n)),
                     st.lists(st.integers(0, n - 1), max_size=2 * n))


@SETTINGS
@given(items=any_items)
def test_shape_and_records_agree(items):
    off = np.concatenate(([0], np.cumsum([len(x) for x in items])))
    width = (len(items[0]) if items
             and len({len(x) for x in items}) == 1 else None)
    for accessor, want in (
            (len, len(items)),
            (lambda c: c.nbytes, sum(map(len, items))),
            (lambda c: c.lengths.tolist(), [len(x) for x in items]),
            (lambda c: c.offsets.tolist(), off.tolist()),
            (lambda c: c.fixed_width, width),
            (lambda c: c.tolist(), items),
            (list, items),
            (lambda c: c.blob, b"".join(items)),
            (lambda c: [c.at(i) for i in range(len(items))], items)):
        for col in _forms(items):
            assert accessor(col) == want


@SETTINGS
@given(data=st.data(), items=any_items)
def test_take_agrees(data, items):
    order = data.draw(_indices(len(items)))
    idx = np.array(order, dtype=np.int64)
    want = [items[i] for i in order]
    for col in _forms(items):
        got = col.take(idx)
        assert got.tolist() == want
        assert got.lengths.tolist() == [len(x) for x in want]
        assert got.blob == b"".join(want)


@SETTINGS
@given(data=st.data(), width=st.integers(min_value=1, max_value=9),
       n=st.integers(min_value=1, max_value=40))
def test_fixed_take_equals_the_matrix_gather(data, width, n):
    """``take`` gathers 1/2/4/8-byte records through a typed 1-D view
    and other widths through the ``(n, width)`` matrix: both must
    equal the matrix row gather, for an empty order too."""
    items = data.draw(st.lists(st.binary(min_size=width, max_size=width),
                               min_size=n, max_size=n))
    order = np.array(data.draw(st.one_of(st.just([]), _indices(n))),
                     dtype=np.int64)
    for col in _forms(items):
        got = col.take(order)
        assert got.blob == col.matrix()[order].tobytes()
        assert got.lengths.tolist() == [width] * len(order)
        assert got.fixed_width == (width if len(order) else None)


@SETTINGS
@given(parts=st.lists(st.tuples(any_items, st.booleans()), max_size=5))
def test_concat_of_mixed_forms(parts):
    cols = [Column.from_list(items) if as_list else _blob_built(items)
            for items, as_list in parts]
    want = [x for items, _ in parts for x in items]
    cat = Column.concat(cols)
    assert cat.tolist() == want
    assert cat.blob == b"".join(want)
    assert cat.lengths.tolist() == [len(x) for x in want]
    assert len(cat) == len(want)


@SETTINGS
@given(items=fixed_items())
def test_fixed_views_agree(items):
    if not items:
        for col in _forms(items):
            with pytest.raises(FrameworkError):
                col.matrix()
        return
    width = len(items[0])
    want = np.frombuffer(b"".join(items), dtype=np.uint8)
    want = want.reshape(len(items), width)
    for col in _forms(items):
        np.testing.assert_array_equal(col.matrix(), want)
    if width % 4 == 0:
        for col in _forms(items):
            np.testing.assert_array_equal(
                col.fixed_array("<u4"),
                want.view("<u4").reshape(len(items), width // 4))
    else:
        for col in _forms(items):
            with pytest.raises(FrameworkError):
                col.fixed_array("<u4")


@SETTINGS
@given(items=any_items, extra=st.binary(max_size=4))
def test_from_list_keeps_its_own_copy(items, extra):
    source = list(items)
    col = Column.from_list(source)
    source.append(extra)
    if source[:-1]:
        source[0] = b"changed" + source[0]
    assert len(col) == len(items)
    assert col.tolist() == items
    assert col.blob == b"".join(items)
