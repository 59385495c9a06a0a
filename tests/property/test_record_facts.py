"""A record set's memoised facts always equal a fresh set's.

:class:`~repro.framework.records.KeyValueSet` memoises ``key_bytes``,
``val_bytes``, ``key_width``, ``val_width`` and ``digest``, and trusts
the memo while both lists keep the lengths it was filled at.  Every
mutation path appends, so the property interleaves each of them —
``append``, ``append_unchecked``, ``extend`` (empty ones too) and raw
appends on the ``keys``/``values`` lists — with reads of every fact,
and compares each read against a record set built fresh from copies
of the lists, whose memo is empty.
"""

import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.framework.records import KeyValueSet  # noqa: E402

FACTS = ("key_bytes", "val_bytes", "key_width", "val_width", "digest")

#: Few distinct widths, so fixed-width runs form and then break.
_field = st.one_of(
    st.sampled_from([b"", b"\x00", b"ab", b"\x1f\x1e", b"w" * 256]),
    st.binary(max_size=3))
_pair = st.tuples(_field, _field)

_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), _pair),
    st.tuples(st.just("append_unchecked"), _pair),
    st.tuples(st.just("extend"), st.lists(_pair, max_size=3)),
    st.tuples(st.just("raw"), _pair),
    st.tuples(st.just("read"), st.sampled_from(FACTS)),
), max_size=30)


def _apply(kvs: KeyValueSet, op: str, arg) -> None:
    if op == "append":
        kvs.append(*arg)
    elif op == "append_unchecked":
        kvs.append_unchecked(*arg)
    elif op == "extend":
        kvs.extend(KeyValueSet(arg))
    elif op == "raw":
        kvs.keys.append(arg[0])
        kvs.values.append(arg[1])
    else:
        getattr(kvs, arg)


@settings(max_examples=150, deadline=None)
@given(start=st.lists(_pair, max_size=4), steps=_steps)
def test_facts_match_a_fresh_set_after_every_step(start, steps):
    kvs = KeyValueSet(start)
    for op, arg in steps:
        _apply(kvs, op, arg)
        fresh = KeyValueSet.from_lists(list(kvs.keys), list(kvs.values))
        for fact in FACTS:
            assert getattr(kvs, fact) == getattr(fresh, fact), (op, fact)
