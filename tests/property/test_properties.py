"""Property-based invariants (hypothesis) for the framework layers.

What the paper's design takes for granted, checked over arbitrary
inputs rather than the workloads' well-behaved ones:

* record sets survive the host -> device -> host round trip byte-for-
  byte, including zero-length keys and values (the directory encodes
  ``(offset, length)`` per record, so empties must be representable);
* the Shuffle phase is a *partition*: every intermediate pair lands in
  exactly one key set, group keys are strictly sorted and disjoint,
  and values keep their emission order within a group (sort
  stability — what makes TR deterministic);
* the shared-memory layout planner carves non-overlapping areas that
  exactly exhaust the staging budget;
* warp-role partitioning covers every warp exactly once and respects
  the helper-warp reservation in output-staging modes;
* the pure prefix-sum used by result collection is an exclusive scan
  over arbitrary warp-sized inputs;
* the dist backend's reduce-range splitter covers ``[0, n)`` with
  contiguous, balanced, non-empty ranges;
* the columnar shuffle's ``sort_and_group`` (hash grouping for ragged
  keys, list- and blob-form) yields exactly the stable byte-order sort
  of the records and its group boundaries.
"""

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ConfigError  # noqa: E402
from repro.framework.columns import Column, sort_and_group  # noqa: E402
from repro.framework.host import shard_slices  # noqa: E402
from repro.framework.layout import (  # noqa: E402
    CONTROL_BYTES,
    FLAG_BYTES_PER_WARP,
    plan_layout,
)
from repro.framework.modes import MemoryMode  # noqa: E402
from repro.framework.partition import partition_warps  # noqa: E402
from repro.framework.prefix_sum import exclusive_scan  # noqa: E402
from repro.framework.records import DeviceRecordSet, KeyValueSet  # noqa: E402
from repro.framework.shuffle import group_host, shuffle  # noqa: E402
from repro.gpu.config import WARP_SIZE, DeviceConfig  # noqa: E402
from repro.gpu.memory import GlobalMemory  # noqa: E402

# Keep each example cheap: the value of these tests is input *shape*
# diversity (empty records, duplicate keys, single-byte payloads),
# not volume.
SETTINGS = settings(max_examples=60, deadline=None)

payload = st.binary(min_size=0, max_size=12)
records = st.lists(st.tuples(payload, payload), max_size=40)
# Duplicate-heavy variant: a handful of candidate keys so groups form.
hot_records = st.lists(
    st.tuples(st.sampled_from([b"", b"a", b"b", b"key", b"\x00\x01"]),
              payload),
    max_size=40,
)


# ----------------------------------------------------------------------
# Record encode/decode round trip
# ----------------------------------------------------------------------


@SETTINGS
@given(recs=records)
def test_device_round_trip(recs):
    kvs = KeyValueSet(recs)
    dev = DeviceRecordSet.upload(GlobalMemory(), kvs, label="t")
    assert list(dev.download()) == recs


@SETTINGS
@given(recs=records)
def test_device_directory_geometry(recs):
    """Directory entries tile the blobs: offsets are the exclusive
    scan of the lengths, and per-record reads see the original bytes."""
    kvs = KeyValueSet(recs)
    dev = DeviceRecordSet.upload(GlobalMemory(), kvs, label="t")
    assert dev.count == len(recs)
    k_off = v_off = 0
    for i, (k, v) in enumerate(recs):
        ko, kl, vo, vl = dev.dir_entry(i)
        assert (ko, kl) == (k_off, len(k))
        assert (vo, vl) == (v_off, len(v))
        assert dev.key_bytes_of(i) == k
        assert dev.val_bytes_of(i) == v
        k_off += len(k)
        v_off += len(v)
    assert dev.keys_size == k_off and dev.vals_size == v_off


# ----------------------------------------------------------------------
# Shuffle: grouping is a partition
# ----------------------------------------------------------------------


@SETTINGS
@given(recs=hot_records)
def test_shuffle_partitions_pairs(recs):
    kvs = KeyValueSet(recs)
    gmem = GlobalMemory()
    res = shuffle(gmem, DeviceRecordSet.upload(gmem, kvs, label="t"),
                  DeviceConfig.small(1))
    g = res.grouped
    assert res.n_records == len(recs)

    keys = [g.group_key(i) for i in range(g.n_groups)]
    # Group keys: strictly sorted, hence pairwise disjoint.
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))

    # Every emitted pair appears in exactly one group; within a group
    # the values keep emission order (stable sort).
    expect = group_host(kvs)
    assert set(keys) == set(expect)
    regrouped = {
        keys[i]: [g.group_value(i, j) for j in range(int(g.group_counts[i]))]
        for i in range(g.n_groups)
    }
    assert regrouped == expect
    assert sum(len(vs) for vs in regrouped.values()) == len(recs)


# ----------------------------------------------------------------------
# Shared-memory layout planner
# ----------------------------------------------------------------------


@SETTINGS
@given(
    tpb=st.sampled_from([32, 64, 128, 256]),
    mode=st.sampled_from(list(MemoryMode)),
    io_ratio=st.floats(min_value=0.05, max_value=0.95),
    working=st.sampled_from([0, 8, 16, 32]),
)
def test_layout_areas_tile_the_budget(tpb, mode, io_ratio, working):
    budget = 16 * 1024
    try:
        lay = plan_layout(smem_budget=budget, threads_per_block=tpb,
                          mode=mode, io_ratio=io_ratio,
                          working_bytes_per_thread=working)
    except ConfigError:
        return  # too many threads for the budget: a legal refusal
    n_warps = tpb // WARP_SIZE
    flags = FLAG_BYTES_PER_WARP * n_warps + CONTROL_BYTES

    # Areas are contiguous and non-overlapping, in declaration order.
    assert lay.flags_off == 0
    assert lay.working_off == flags
    assert lay.input_off == lay.working_off + working * tpb
    assert lay.output_off == lay.input_off + lay.input_bytes
    assert lay.total_bytes <= budget

    staging = budget - flags - working * tpb
    if mode.stages_input and mode.stages_output:
        assert lay.input_bytes + lay.output_bytes == staging
        assert lay.input_bytes == int(staging * io_ratio)
    elif mode.stages_input:
        assert (lay.input_bytes, lay.output_bytes) == (staging, 0)
    elif mode.stages_output:
        assert (lay.input_bytes, lay.output_bytes) == (0, staging)
    else:
        assert lay.input_bytes == lay.output_bytes == 0


@SETTINGS
@given(sizes=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)),
                      max_size=64),
       start=st.integers(0, 64))
def test_layout_records_fit_is_maximal(sizes, start):
    lay = plan_layout(smem_budget=16 * 1024, threads_per_block=128,
                      mode=MemoryMode.SIO)
    ks = [k for k, _ in sizes]
    vs = [v for _, v in sizes]
    n = lay.records_fit(ks, vs, start)
    total = len(sizes)
    assert 0 <= n <= max(0, total - start)
    need = lambda i: ks[i] + vs[i] + 16  # noqa: E731
    assert sum(need(i) for i in range(start, start + n)) <= lay.input_bytes
    if start + n < total:  # maximal: the next record would not fit
        assert (sum(need(i) for i in range(start, start + n))
                + need(start + n) > lay.input_bytes)


# ----------------------------------------------------------------------
# Warp-role partition
# ----------------------------------------------------------------------


@SETTINGS
@given(
    n_warps=st.integers(2, 16),
    concurrency=st.integers(0, 1024),
    mode=st.sampled_from(list(MemoryMode)),
)
def test_partition_covers_warps_exactly_once(n_warps, concurrency, mode):
    part = partition_warps(n_warps=n_warps, concurrency=concurrency,
                           mode=mode)
    both = part.compute_warps + part.helper_warps
    assert sorted(both) == list(range(n_warps))  # exact cover, no dups
    assert len(part.compute_warps) >= 1
    if mode.stages_output:
        assert len(part.helper_warps) >= 1
    # Compute capacity is the need rounded up to warps, capped by the
    # warps available for compute.
    needed = max(1, -(-max(0, concurrency) // WARP_SIZE))
    cap = n_warps - 1 if mode.stages_output else n_warps
    assert len(part.compute_warps) == min(cap, needed)


# ----------------------------------------------------------------------
# Prefix sums
# ----------------------------------------------------------------------


@SETTINGS
@given(values=st.lists(st.integers(0, 1 << 16), max_size=WARP_SIZE))
def test_exclusive_scan(values):
    prefixes, total = exclusive_scan(values)
    assert len(prefixes) == len(values)
    assert total == sum(values)
    acc = 0
    for p, v in zip(prefixes, values):
        assert p == acc
        acc += v
    # The collection invariant the scan exists for: each lane's slot
    # [prefix, prefix + size) tiles [0, total) without overlap.
    for i in range(len(values) - 1):
        assert prefixes[i] + values[i] == prefixes[i + 1]


# ----------------------------------------------------------------------
# Shard splitting (dist backend's reduce ranges)
# ----------------------------------------------------------------------


@SETTINGS
@given(n=st.integers(0, 4096), shards=st.integers(1, 64))
def test_shard_slices_partition(n, shards):
    slices = shard_slices(n, shards)
    assert len(slices) == min(n, shards)
    # Contiguous exact cover of [0, n).
    pos = 0
    for lo, hi in slices:
        assert lo == pos and hi > lo
        pos = hi
    assert pos == n
    # Balanced: shard sizes differ by at most one.
    if slices:
        sizes = [hi - lo for lo, hi in slices]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# Columnar shuffle: sort_and_group against the stable-sort reference
# ----------------------------------------------------------------------

#: Byte-order hazards: the empty key, NUL bytes, prefix chains
#: (b"a" < b"a\x00" < b"ab") and bytes >= 0x80 (unsigned order).
_hazard_keys = st.sampled_from(
    [b"", b"\x00", b"a", b"a\x00", b"ab", b"\x80", b"\xff\x00", b"a\xff"]
)


@SETTINGS
@given(keys=st.lists(st.one_of(_hazard_keys, payload), min_size=1,
                     max_size=60))
@hyp.example(keys=[b"a", b"a\x00", b"ab", b"a", b"", b"a\x00"])
@hyp.example(keys=[b"ab", b"a\x00", b"a", b"\x80", b"", b"\x00"])
@hyp.example(keys=[b"hi"] * 5)
def test_sort_and_group_matches_stable_sort(keys):
    n = len(keys)
    want = sorted(range(n), key=keys.__getitem__)
    want_starts = [0] + [
        pos for pos in range(1, n) if keys[want[pos]] != keys[want[pos - 1]]
    ] + [n]
    blob = Column(b"".join(keys),
                  np.array([len(k) for k in keys], dtype=np.int64))
    for col in (Column.from_list(keys), blob):
        order, starts, vectorized = sort_and_group(col)
        assert order.tolist() == want
        assert starts.tolist() == want_starts
        assert vectorized == (col.fixed_width is not None)
