"""The incremental ledger reader behind ``load_calibration``.

A property pins it to a from-scratch parse of the same bytes through
appends, torn and malformed lines, truncation, deletion and
replacement by rename; a deterministic test pins what one tuned job
costs: each ledger line is decoded once, the input is hashed once.
"""

import collections
import json
import math
import os
import tempfile
import types

import pytest

from repro.framework import records
from repro.framework.job import run_job
from repro.framework.modes import ALL_MODES, ReduceStrategy
from repro.obs import ledger
from repro.tune import decide
from repro.tune.calibrate import CalibrationState, load_calibration
from repro.tune.cost import Candidate
from repro.tune.synthetic import synthetic_case

hyp = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

SPEC = types.SimpleNamespace(name="w")
DIGESTS = ("d0", "d1")
CANDIDATES = [Candidate(mode=m, strategy=s, backend=b)
              for m in ALL_MODES
              for s in (ReduceStrategy.TR, ReduceStrategy.BR)
              for b in ("sim", "fast")]

# Few distinct values, so equal costs (the tie rule), repeated
# configurations and clamped corrections all come up.
cost = st.sampled_from([1.0, 1.0, 2.0, 0.0, None])
record = st.fixed_dictionaries({
    "workload": st.sampled_from(["w", "w", "other"]),
    "input_digest": st.sampled_from(DIGESTS),
    "mode": st.sampled_from(["G", "SIO"]),
    "strategy": st.sampled_from(["TR", "BR"]),
    "backend": st.sampled_from(["sim", "fast"]),
    "workers": st.sampled_from([None, None, None, 2]),
    "sim_cycles": cost,
    "wall_s": cost,
    "tuned": st.booleans(),
    "tuner_predicted_cost": st.sampled_from([100.0, 0.0, None]),
    "tuner_error": st.sampled_from([-0.9, -0.25, 0.0, 0.5, 4.0, None]),
    "n": st.integers(0, 9),
})
line = record.map(
    lambda rec: json.dumps(rec, sort_keys=True).encode() + b"\n")
garbage = st.sampled_from(
    [b"\n", b"{not json\n", b'"a string"\n', b"[1, 2]\n", b"\xff\xfe\n",
     # Valid records with a list or object where a name belongs.
     b'{"workload": ["w"], "input_digest": "d0", "wall_s": 1.0}\n',
     b'{"workload": "w", "input_digest": "d0", "mode": {"G": 1}, '
     b'"backend": "fast", "wall_s": 1.0}\n'])
step = st.one_of(
    st.tuples(st.just("append"), line),
    st.tuples(st.just("append"), line),
    st.tuples(st.just("append"), garbage),
    # A torn write: a record line without its newline ...
    st.tuples(st.just("append"), line.map(lambda b: b[:-1])),
    # ... which a later bare newline may complete.
    st.tuples(st.just("append"), st.just(b"\n")),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("replace"), st.lists(line, max_size=4)),
    st.tuples(st.just("delete"), st.none()),
)


def _apply(path, kind, arg):
    if kind == "append":
        with open(path, "ab") as fh:
            fh.write(arg)
    elif kind == "truncate":
        if os.path.exists(path):
            os.truncate(path, int(os.path.getsize(path) * arg))
    elif kind == "replace":
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(arg))
        os.replace(tmp, path)
    elif os.path.exists(path):
        os.remove(path)


def _pick(state):
    return [decide._history_candidate(state, SPEC, digest, CANDIDATES)
            for digest in DIGESTS]


def _reference(records):
    """Corrections, sample count and history picks by whole-list scans:
    the loop the running sums and the index replace."""
    votes, samples = {}, 0
    for rec in records:
        ratio = 1.0 + (rec.get("tuner_error") or 0.0)
        if not (rec.get("tuned") and rec.get("tuner_predicted_cost")
                and rec.get("tuner_error") is not None and ratio > 0):
            continue
        samples += 1
        for knob in ("mode", "strategy", "backend"):
            if rec.get(knob):
                votes.setdefault(f"{knob}:{rec[knob]}", []).append(ratio)
    corrections = {
        key: min(2.0, max(0.5, math.exp(
            sum(math.log(r) for r in ratios) / len(ratios))))
        for key, ratios in votes.items() if len(ratios) >= 2
    }
    picks, bests = [], []
    for digest in DIGESTS:
        best = {}
        for rec in records:
            if (rec.get("workload"), rec.get("input_digest")) \
                    != (SPEC.name, digest):
                continue
            cost = rec.get("sim_cycles" if rec.get("backend") == "sim"
                           else "wall_s")
            key = tuple(rec.get(k) for k in
                        ("mode", "strategy", "backend", "workers"))
            if not cost or any(isinstance(k, dict) for k in key):
                continue
            if key not in best or cost <= best[key][0]:
                best[key] = (cost, rec)
        pick = None
        if len(best) >= decide.HISTORY_MIN_CONFIGS:
            _, rec = min(best.values(), key=lambda entry: entry[0])
            pick = next(
                (c for c in CANDIDATES
                 if c.mode.value == rec["mode"]
                 and getattr(c.strategy, "value", None) == rec["strategy"]
                 and c.backend in ("sim", rec["backend"])), None)
        picks.append(pick)
        bests.append(best)
    return corrections, samples, picks, bests


@settings(max_examples=300, deadline=None)
@given(st.lists(step, max_size=30))
def test_incremental_state_matches_full_parse(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, ledger.LEDGER_NAME)
        for kind, arg in steps:
            _apply(path, kind, arg)
            state = load_calibration(path)
            records = ledger.read_ledger(path)
            fresh = CalibrationState.from_records(records)
            assert state.corrections == fresh.corrections
            assert state.samples == fresh.samples
            assert state.lines == fresh.lines == len(records)
            assert state.history == fresh.history
            assert _pick(state) == _pick(fresh)
            corrections, samples, picks, bests = _reference(records)
            assert state.corrections.keys() == corrections.keys()
            for key, value in corrections.items():
                assert math.isclose(state.corrections[key], value,
                                    rel_tol=1e-12)
            assert (state.samples, _pick(state)) == (samples, picks)
            assert [state.history.get((SPEC.name, digest), {})
                    for digest in DIGESTS] == bests


def test_unterminated_line_waits_for_its_newline(tmp_path):
    path = str(tmp_path / ledger.LEDGER_NAME)
    rec = {"workload": "w", "backend": "fast", "wall_s": 1.0}
    with open(path, "w") as fh:
        fh.write(json.dumps(rec))
    assert ledger.read_ledger(path) == []
    assert load_calibration(path).lines == 0
    with open(path, "a") as fh:
        fh.write("\n")
    assert ledger.read_ledger(path) == [rec]
    assert load_calibration(path).lines == 1


def test_snapshot_survives_appends(tmp_path):
    path = str(tmp_path / ledger.LEDGER_NAME)
    rec = {"workload": "w", "input_digest": "d0", "backend": "fast",
           "mode": "G", "wall_s": 2.0}
    ledger.append_record(rec, path)
    first = load_calibration(path)
    ledger.append_record(dict(rec, mode="SIO", wall_s=1.0), path)
    ledger.append_record(dict(rec, wall_s=1.0), path)
    second = load_calibration(path)
    assert first.lines == 1
    assert [c for c, _ in first.history[("w", "d0")].values()] == [2.0]
    assert [c for c, _ in second.history[("w", "d0")].values()] \
        == [1.0, 1.0]


def test_tuned_job_decodes_each_line_once_and_digests_once(monkeypatch):
    """Deterministic per-job cost: counts, not timings."""
    decoded = collections.Counter()
    parse_line = ledger.parse_line

    def counting_parse(line):
        decoded[bytes(line)] += 1
        return parse_line(line)

    # The tuner, the profiler and the ledger each ask for the input's
    # digest; the record set memoises it, so its columns are hashed
    # once however many jobs read it.
    hashes = []
    hash_columns = records.hash_columns

    def counting_hash(*args):
        hashes.append(args)
        return hash_columns(*args)

    monkeypatch.setattr(ledger, "parse_line", counting_parse)
    monkeypatch.setattr(records, "hash_columns", counting_hash)

    spec, inp = synthetic_case("numfixed", seed=0, scale=0.05)
    jobs = 50
    for _ in range(jobs):
        run_job(spec, inp, strategy="TR", tune=True)
        assert len(hashes) == 1
    for _ in range(3):
        run_job(spec, inp, mode="auto", strategy="TR", backend="fast")
        assert len(hashes) == 1
    load_calibration()  # consumes the last job's line

    with open(ledger.ledger_path(), "rb") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == jobs + 3
    assert decoded == collections.Counter(lines)
    assert set(decoded.values()) == {1}
    want = ledger.digest_input(inp)
    recs = [json.loads(raw) for raw in lines]
    assert [r["tuned"] for r in recs] == [True] * (jobs + 3)
    assert {r["input_digest"] for r in recs} == {want}
