"""Bounded-sample input profiler: the tuner's feature extractor.

``profile_input`` reads an evenly-strided sample of the input —
capped at :data:`SAMPLE_CAP_RECORDS` records *and*
:data:`SAMPLE_CAP_BYTES` bytes, whichever bound hits first — and runs
the workload's Map function over it to measure what the paper's
Table II tabulates by hand: emission density, output:input byte
ratio, emitted-key cardinality and skew.  The resulting
:class:`InputStats` is the only thing the cost model ever sees, so
profiling cost is O(sample), never O(input); the overhead bar (<5% of
a tiny job's wall time, pinned in ``tests/tune``) is what keeps
``$REPRO_AUTOTUNE`` safe to leave on.

Cardinality is extrapolated from the sample with a saturation
heuristic: a vocabulary the sample already exhausts (few singleton
keys) stays at the observed distinct count, while an open key space
(mostly singletons) scales with the record count.  Skew is the hottest
sampled key's share of sampled emissions — the feature that separates
the TR-friendly many-small-groups shape from the BR-friendly
few-hot-groups shape (paper Figures 5f–5i).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.accessor import Accessor, AccessTrace
from ..obs.ledger import digest_input

#: Sampling bounds: whichever is reached first ends the sample.
SAMPLE_CAP_RECORDS = 4096
SAMPLE_CAP_BYTES = 1 << 20  # 1 MiB

#: Distinct emitted keys tracked before the counter is frozen (beyond
#: this the key space is "open" and extrapolation takes over).
TRACK_DISTINCT_CAP = 8192


class _CountingTrace(AccessTrace):
    """Counts accessor touches — the profiler's compute-intensity
    signal (a Map that re-reads its input many times, like KMeans's
    distance loop, is compute-bound in a way byte counts can't see)."""

    __slots__ = ("touches",)

    def __init__(self) -> None:
        self.touches = 0

    def touch(self, start: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        # Count traced words, matching the sim's per-access charge.
        self.touches += (start + nbytes - 1) // 4 - start // 4 + 1


@dataclass(frozen=True)
class InputStats:
    """Measured + extrapolated characteristics of one job input."""

    #: Full input size (records / estimated total bytes — bytes are
    #: exact when the sample covered everything, extrapolated else).
    records: int
    total_bytes: int
    #: How many records the bounded sample actually read.
    sampled: int
    sampled_bytes: int
    #: Input record shape.
    key_bytes_avg: float
    val_bytes_avg: float
    rec_bytes_max: int
    #: Fixed widths in bytes, or None when ragged across the sample.
    fixed_key_width: int | None
    fixed_val_width: int | None
    #: Map behaviour over the sample.
    emissions_per_record: float
    emit_key_bytes: float
    emit_val_bytes: float
    out_in_ratio: float
    #: Emitted-key population: distinct keys in the sample, the
    #: extrapolated group count for the full input, and the hottest
    #: key's share of sampled emissions (1.0 = single-key input).
    distinct_sampled: int
    est_groups: int
    skew: float
    #: Fixed-width emissions with numeric-looking (4/8-byte) values —
    #: the columnar fast path's best case.
    emit_fixed_width: bool
    #: Traced word-accesses the Map makes per record (re-reads count:
    #: KMeans's distance loop touches its point once per centroid).
    accesses_per_record: float = 0.0
    #: The spec's ALU hints, captured at profile time so the cost
    #: model can price compute-bound Maps.
    cycles_per_record_hint: float = 0.0
    cycles_per_access_hint: float = 0.0

    @property
    def compute_per_record(self) -> float:
        """Estimated ALU cycles one thread spends per input record."""
        return self.cycles_per_record_hint \
            + self.cycles_per_access_hint * self.accesses_per_record

    @property
    def rec_bytes_avg(self) -> float:
        return self.key_bytes_avg + self.val_bytes_avg

    @property
    def est_emissions(self) -> float:
        """Extrapolated intermediate record count for the full input."""
        return self.emissions_per_record * self.records

    @property
    def est_intermediate_bytes(self) -> float:
        """Extrapolated intermediate footprint (store ``record_cost``
        accounting: key + value + 16 bytes of directory entry)."""
        per = self.emit_key_bytes + self.emit_val_bytes + 16.0
        return self.est_emissions * per

    @property
    def est_max_group(self) -> float:
        """Expected size of the largest key group — the TR strategy's
        serial chain (one thread owns the whole group)."""
        if self.est_emissions <= 0:
            return 0.0
        uniform = self.est_emissions / max(1, self.est_groups)
        return max(uniform, self.skew * self.est_emissions)

    @property
    def numeric_values(self) -> bool:
        return self.fixed_val_width in (4, 8)

    @property
    def ragged_keys(self) -> bool:
        return self.fixed_key_width is None

    def summary(self) -> dict:
        """Compact JSON-able form (span attrs, ledger, reports)."""
        return {
            "records": self.records,
            "sampled": self.sampled,
            "rec_bytes": round(self.rec_bytes_avg, 1),
            "emissions_per_record": round(self.emissions_per_record, 3),
            "est_groups": self.est_groups,
            "skew": round(self.skew, 4),
            "ragged_keys": self.ragged_keys,
            "numeric_values": self.numeric_values,
        }


def _stride_indices(n: int, cap: int) -> range:
    """Evenly strided deterministic sample positions."""
    if n <= cap:
        return range(n)
    stride = n // cap
    return range(0, stride * cap, stride)


#: Profile memo: (spec name, input digest, caps) -> InputStats.  A
#: sweep prices the same input dozens of times (the autotune benchmark
#: literally does); re-running the sample map each time would make the
#: tuner's overhead proportional to input size on every call instead
#: of once.  Bounded FIFO — stats are tiny, but unbounded growth in a
#: long service process is not.
_PROFILE_CACHE: dict[tuple, InputStats] = {}
_PROFILE_CACHE_CAP = 64


def profile_input(
    spec,
    inp,
    *,
    cap_records: int = SAMPLE_CAP_RECORDS,
    cap_bytes: int = SAMPLE_CAP_BYTES,
) -> InputStats:
    """Profile ``inp`` for ``spec`` under the sampling caps (memoised
    on the input's content digest).

    Empty inputs profile to all-zero stats (every candidate then costs
    the same and the tuner falls back to the paper's default).
    """
    key = (getattr(spec, "name", None), digest_input(inp), len(inp),
           cap_records, cap_bytes)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit
    stats = _profile_uncached(
        spec, inp, cap_records=cap_records, cap_bytes=cap_bytes
    )
    while len(_PROFILE_CACHE) >= _PROFILE_CACHE_CAP:
        _PROFILE_CACHE.pop(next(iter(_PROFILE_CACHE)))
    _PROFILE_CACHE[key] = stats
    return stats


def _profile_uncached(
    spec,
    inp,
    *,
    cap_records: int,
    cap_bytes: int,
) -> InputStats:
    n = len(inp)
    keys, vals = inp.keys, inp.values
    counter = _CountingTrace()
    const = (Accessor(spec.const_bytes, counter)
             if spec.const_bytes else None)
    map_record = spec.map_record

    sampled = sampled_bytes = 0
    key_b = val_b = rec_max = 0
    fixed_k: int | None = None
    fixed_v: int | None = None
    ragged_k = ragged_v = False
    emissions = 0
    emit_kb = emit_vb = 0
    emit_fixed = True
    emit_w: tuple[int, int] | None = None
    counts: dict[bytes, int] = {}
    counts_frozen = False

    outs: list[tuple[bytes, bytes]] = []

    def emit(k, v) -> None:
        outs.append((bytes(k), bytes(v)))

    for i in _stride_indices(n, cap_records):
        k, v = keys[i], vals[i]
        sampled += 1
        kl, vl = len(k), len(v)
        sampled_bytes += kl + vl
        key_b += kl
        val_b += vl
        rec_max = max(rec_max, kl + vl)
        if fixed_k is None and not ragged_k:
            fixed_k = kl
        elif fixed_k != kl:
            ragged_k = True
        if fixed_v is None and not ragged_v:
            fixed_v = vl
        elif fixed_v != vl:
            ragged_v = True

        outs.clear()
        map_record(Accessor(k, counter), Accessor(v, counter), emit, const)
        emissions += len(outs)
        for ek, ev in outs:
            emit_kb += len(ek)
            emit_vb += len(ev)
            if emit_fixed:
                w = (len(ek), len(ev))
                if emit_w is None:
                    emit_w = w
                elif emit_w != w:
                    emit_fixed = False
            if not counts_frozen:
                counts[ek] = counts.get(ek, 0) + 1
                if len(counts) > TRACK_DISTINCT_CAP:
                    counts_frozen = True
        if sampled_bytes >= cap_bytes:
            break

    if sampled == 0:
        return InputStats(
            records=n, total_bytes=0, sampled=0, sampled_bytes=0,
            key_bytes_avg=0.0, val_bytes_avg=0.0, rec_bytes_max=0,
            fixed_key_width=None, fixed_val_width=None,
            emissions_per_record=0.0, emit_key_bytes=0.0,
            emit_val_bytes=0.0, out_in_ratio=0.0, distinct_sampled=0,
            est_groups=0, skew=0.0, emit_fixed_width=False,
            accesses_per_record=0.0,
            cycles_per_record_hint=getattr(spec, "cycles_per_record", 0.0),
            cycles_per_access_hint=getattr(spec, "cycles_per_access", 0.0),
        )

    distinct = len(counts)
    top = max(counts.values()) if counts else 0
    skew = (top / emissions) if emissions else 0.0
    est_groups = _extrapolate_groups(
        distinct=distinct, sample_emissions=emissions,
        total_emissions=emissions / sampled * n,
        singletons=sum(1 for c in counts.values() if c == 1),
        frozen=counts_frozen,
    )
    return InputStats(
        records=n,
        total_bytes=round(sampled_bytes / sampled * n),
        sampled=sampled,
        sampled_bytes=sampled_bytes,
        key_bytes_avg=key_b / sampled,
        val_bytes_avg=val_b / sampled,
        rec_bytes_max=rec_max,
        fixed_key_width=None if ragged_k else fixed_k,
        fixed_val_width=None if ragged_v else fixed_v,
        emissions_per_record=emissions / sampled,
        emit_key_bytes=(emit_kb / emissions) if emissions else 0.0,
        emit_val_bytes=(emit_vb / emissions) if emissions else 0.0,
        out_in_ratio=(emit_kb + emit_vb) / max(1, sampled_bytes),
        distinct_sampled=distinct,
        est_groups=est_groups,
        skew=skew,
        emit_fixed_width=bool(emissions) and emit_fixed,
        accesses_per_record=counter.touches / sampled,
        cycles_per_record_hint=getattr(spec, "cycles_per_record", 0.0),
        cycles_per_access_hint=getattr(spec, "cycles_per_access", 0.0),
    )


def _extrapolate_groups(*, distinct: int, sample_emissions: float,
                        total_emissions: float, singletons: int,
                        frozen: bool) -> int:
    """Extrapolate sampled distinct keys to a full-input group count.

    Saturated vocabularies (few singletons — the sample keeps
    re-seeing the same keys) stay at the observed count; open key
    spaces (mostly singletons — each record mints fresh keys) scale
    with the input.  A frozen counter means the tracked cap was blown:
    treat the space as open.
    """
    if distinct == 0:
        return 0
    if sample_emissions <= 0:
        return distinct
    singleton_share = singletons / distinct
    if frozen or singleton_share > 0.5:
        scale = total_emissions / sample_emissions
        return max(distinct, int(round(distinct * scale)))
    # Mostly repeated keys: the vocabulary is (nearly) closed.  Add the
    # singleton tail once more as a small-sample correction.
    est = distinct + singletons * 0.5
    return max(distinct, int(round(min(est, total_emissions))))
