"""Golden-trace regression: the simulator's timing is part of the API.

The committed fixture ``wordcount_small.json`` pins cycle counts,
phase timings and kernel counters for one small wordcount run per
memory mode (plus Mars).  The test re-runs the simulator and compares
**exactly** — any drift is either a bug or an intended timing-model
change, and an intended change must regenerate the fixture
(``scripts/gen_golden_traces.py``) so the diff is reviewed, not
absorbed.

The collection logic lives in the generator script; importing it here
keeps the fixture writer and the checker from drifting apart.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURE = Path(__file__).resolve().parent / "wordcount_small.json"
DIST_FIXTURE = Path(__file__).resolve().parent / "dist_wordcount_small.json"
STREAMED_FIXTURE = (Path(__file__).resolve().parent
                    / "streamed_wordcount_small.json")

_spec = importlib.util.spec_from_file_location(
    "gen_golden_traces", ROOT / "scripts" / "gen_golden_traces.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current() -> dict:
    return gen.collect_golden()


def test_fixture_matches_pinned_workload(golden):
    assert golden["workload"] == gen.WORKLOAD


def test_all_modes_pinned(golden):
    assert sorted(golden["runs"]) == sorted(
        ["G", "GT", "SI", "SO", "SIO", "Mars"])


def test_input_identical(golden, current):
    assert current["input_records"] == golden["input_records"]


class TestStreamed:
    """The batched Map pipeline (paper Section III-A) is pinned as
    well: ``streamed_wordcount_small.json`` holds each batch's upload
    and Map cycles, the overlapped total and the job's counters for
    the pinned workload in three batches, with and without Reduce."""

    @pytest.fixture(scope="class")
    def streamed_golden(self) -> dict:
        with open(STREAMED_FIXTURE, encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def streamed_current(self) -> dict:
        return gen.collect_streamed_golden()

    def test_fixture_matches_pinned_workload(self, streamed_golden):
        assert streamed_golden["workload"] == dict(
            gen.WORKLOAD, **gen.STREAMED_BATCHING)
        assert sorted(streamed_golden["runs"]) == sorted(gen.STREAMED_RUNS)

    @pytest.mark.parametrize("run", sorted(gen.STREAMED_RUNS))
    def test_streamed_trace_unchanged(self, streamed_golden,
                                      streamed_current, run):
        want = streamed_golden["runs"][run]
        got = streamed_current["runs"][run]
        assert sorted(got) == sorted(want)
        for field, pinned in want.items():
            assert got[field] == pinned, (
                f"{run}: {field} drifted — if intended, regenerate the "
                f"fixture with scripts/gen_golden_traces.py and review "
                f"the diff")


class TestDistSchedule:
    """The distributed scheduler's decisions are part of the API too:
    ``dist_wordcount_small.json`` pins every assignment, the scripted
    worker death and the retry target for a deterministic fault-
    injected run.  A scheduler change that moves a task shows up as a
    precise event diff, not as an unexplained flake."""

    @pytest.fixture(scope="class")
    def dist_golden(self) -> dict:
        with open(DIST_FIXTURE, encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def dist_current(self) -> dict:
        return gen.collect_dist_golden()

    def test_fixture_matches_pinned_workload(self, dist_golden):
        want = dict(gen.DIST_WORKLOAD)
        got = dict(dist_golden["workload"])
        got.pop("fault", None)
        assert got == want

    def test_schedule_events_unchanged(self, dist_golden, dist_current):
        assert dist_current["events"] == dist_golden["events"], (
            "dist scheduling decisions drifted — if intended, "
            "regenerate the fixture with scripts/gen_golden_traces.py "
            "and review the diff")

    def test_counters_unchanged(self, dist_golden, dist_current):
        assert dist_current["counters"] == dist_golden["counters"]

    def test_result_shape_unchanged(self, dist_golden, dist_current):
        assert (dist_current["input_records"]
                == dist_golden["input_records"])
        assert (dist_current["output_records"]
                == dist_golden["output_records"])
        assert (dist_current["intermediate_count"]
                == dist_golden["intermediate_count"])


@pytest.mark.parametrize("mode", ["G", "GT", "SI", "SO", "SIO", "Mars"])
def test_trace_unchanged(golden, current, mode):
    want, got = golden["runs"][mode], current["runs"][mode]
    assert got["timings"] == want["timings"], (
        f"{mode}: phase cycle counts drifted — if intended, regenerate "
        f"the fixture with scripts/gen_golden_traces.py and review the "
        f"diff")
    assert got["intermediate_count"] == want["intermediate_count"]
    assert got["output_records"] == want["output_records"]
    for phase in ("map_stats", "reduce_stats"):
        for field, pinned in want[phase].items():
            assert got[phase][field] == pinned, (
                f"{mode}: {phase}.{field} drifted from pinned value")
        assert sorted(got[phase]) == sorted(want[phase])
