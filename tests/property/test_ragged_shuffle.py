"""Fuzz tier: the ragged shuffle against a stable sort, across the
rank-code dtype boundaries.

:func:`~repro.framework.columns.sort_and_group` codes ragged keys by
first occurrence, then through a rank table whose dtype is the
narrowest that holds the group count (u8 up to 255 groups, u16 up to
65,535, u32 beyond).  Vocabularies here straddle both boundaries, mix
in the empty key and NUL-suffixed keys, and present their first
occurrences in shuffled order; the permutation and group starts must
equal a plain Python stable sort's, with the keys in list form (the
dict pass) and in blob form (the short-key coding, whose scatter
table the u16 boundary's vocabularies fill to clashing).  Marked ``fuzz``: CI's fuzz tier
(``pytest -m fuzz``) runs it, tier-1 deselects it.
"""

import random

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.framework.columns import Column, sort_and_group  # noqa: E402

_HAZARDS = [b"", b"\x00", b"a\x00", b"a\x00\x00", b"\xff"]


def _vocab(k, seed):
    """``k`` distinct ragged keys, hazards included, in shuffled
    first-occurrence order."""
    keys = _HAZARDS[:min(k, len(_HAZARDS))]
    keys += [b"a%x" % i for i in range(k - len(keys))]
    random.Random(seed).shuffle(keys)
    return keys


def _check(keys):
    want = sorted(range(len(keys)), key=keys.__getitem__)
    want_starts = [0] + [i for i in range(1, len(want))
                         if keys[want[i]] != keys[want[i - 1]]]
    blob = Column(b"".join(keys),
                  np.array([len(k) for k in keys], dtype=np.int64))
    for col in (Column.from_list(keys), blob):
        order, starts, vectorized = sort_and_group(col)
        assert not vectorized
        assert order.tolist() == want
        assert starts.tolist() == want_starts + [len(keys)]


@pytest.mark.fuzz
@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=250, max_value=262),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       dups=st.lists(st.integers(min_value=0, max_value=261), max_size=400))
def test_ragged_groups_across_the_u8_boundary(k, seed, dups):
    vocab = _vocab(k, seed)
    _check(vocab + [vocab[i % k] for i in dups])


@pytest.mark.fuzz
@settings(max_examples=24, deadline=None)
@given(k=st.integers(min_value=65_533, max_value=65_539),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       extra=st.integers(min_value=0, max_value=2_000))
def test_ragged_groups_across_the_u16_boundary(k, seed, extra):
    vocab = _vocab(k, seed)
    rng = random.Random(~seed)
    _check(vocab + [vocab[rng.randrange(k)] for _ in range(extra)])
