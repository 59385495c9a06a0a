"""mode="auto" must never change *what* a job computes.

The differential core of the tuner acceptance: on every backend, the
auto run's output is byte-identical to running the exact fixed
configuration the tuner chose, and the sim backend's cycle count
matches too (same config => same deterministic simulation).
"""

import pytest

from repro.framework.job import run_job
from repro.framework.modes import MemoryMode
from repro.gpu.config import DeviceConfig
from repro.tune.synthetic import synthetic_case
from repro.workloads import KMeans, WordCount

CFG = DeviceConfig.small(2)

BACKENDS = ["sim", "fast", "dist:2", "columnar"]


def _sorted(kvs):
    return sorted(zip(kvs.keys, kvs.values))


def _tpb(result):
    choice = result.map_stats.extra["tuner_choice"]
    return int(choice.rsplit("@", 1)[1].split()[0])


@pytest.mark.parametrize("backend", BACKENDS)
class TestAutoParity:
    def _assert_parity(self, spec, inp, backend, **kwargs):
        auto = run_job(spec, inp, mode="auto", config=CFG,
                       backend=backend, **kwargs)
        assert isinstance(auto.mode, MemoryMode)
        fixed = run_job(spec, inp, mode=auto.mode, strategy=auto.strategy,
                        threads_per_block=_tpb(auto), config=CFG,
                        backend=backend, **{k: v for k, v in kwargs.items()
                                            if k != "strategy"})
        assert _sorted(auto.output) == _sorted(fixed.output)
        if backend == "sim":
            assert auto.timings.total == fixed.timings.total
        return auto

    def test_wordcount(self, backend):
        w = WordCount()
        inp = w.generate("small", seed=0, scale=0.2)
        spec = w.spec_for_size("small", seed=0, scale=0.2)
        self._assert_parity(spec, inp, backend, strategy="auto")

    def test_kmeans(self, backend):
        w = KMeans()
        inp = w.generate("small", seed=1, scale=0.2)
        spec = w.spec_for_size("small", seed=1, scale=0.2)
        self._assert_parity(spec, inp, backend, strategy="auto")

    def test_synthetic_hotkey(self, backend):
        spec, inp = synthetic_case("hotkey", seed=2, scale=0.5)
        self._assert_parity(spec, inp, backend, strategy="auto")

    def test_map_only_stays_map_only(self, backend):
        spec, inp = synthetic_case("uniform", seed=0, scale=0.3)
        auto = run_job(spec, inp, mode="auto", strategy=None, config=CFG,
                       backend=backend)
        assert auto.strategy is None


class TestCrossBackendAgreement:
    def test_all_backends_pick_the_same_config(self):
        """The mode label a backend reports under auto comes from one
        shared decision layer — no backend-specific drift."""
        w = WordCount()
        inp = w.generate("small", seed=0, scale=0.2)
        spec = w.spec_for_size("small", seed=0, scale=0.2)
        results = [
            run_job(spec, inp, mode="auto", strategy="auto", config=CFG,
                    backend=b)
            for b in BACKENDS
        ]
        choices = {r.map_stats.extra["tuner_choice"] for r in results}
        assert len(choices) == 1, choices
        outputs = {tuple(_sorted(r.output)) for r in results}
        assert len(outputs) == 1
