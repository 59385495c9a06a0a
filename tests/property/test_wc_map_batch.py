"""WordCount's batch Map against its scalar Map, on hostile lines.

``wc_map_batch`` joins a batch of lines, finds the ``b" "`` separators
with one array scan and deletes them to form the words' blob; only
``b" "`` separates words, exactly as ``line.split(b" ")`` in
``wc_map``.  Lines here mix leading, trailing and repeated spaces,
empty and space-only lines, and tab, NUL and 0xFF bytes (which are
word bytes, not separators); the batch Map must emit the scalar
Map's ``(word, 1)`` pair stream, in order.
"""

import struct

import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.framework.columns import ColumnBatch  # noqa: E402
from repro.framework.records import KeyValueSet  # noqa: E402
from repro.gpu.accessor import host_accessor  # noqa: E402
from repro.workloads.wordcount import wc_map, wc_map_batch  # noqa: E402

_byte = st.sampled_from(b"  ab\t\x00\xff\xc3")
lines = st.lists(
    st.one_of(st.binary(max_size=24),
              st.lists(_byte, max_size=24).map(bytes),
              st.sampled_from([b"", b" ", b"   ", b"a", b" a ", b"\t"])),
    max_size=30)


@settings(max_examples=200, deadline=None)
@given(lines=lines)
def test_batch_map_emits_the_scalar_pair_stream(lines):
    want = KeyValueSet()
    for i, line in enumerate(lines):
        wc_map(host_accessor(line), host_accessor(struct.pack("<I", i)),
               want.append, None)
    cols = ColumnBatch.from_lists(
        lines, [struct.pack("<I", i) for i in range(len(lines))])
    got = wc_map_batch(cols)
    assert list(got.to_kvs()) == list(want)
    assert got.keys.lengths.tolist() == [len(k) for k in want.keys]
