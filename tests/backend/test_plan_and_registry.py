"""Unit tests for JobPlan normalisation and the backend registry."""

import pytest

from repro.backend import (
    BACKENDS,
    BatchPolicy,
    ENGINE_MARS,
    FastBackend,
    JobPlan,
    SimBackend,
    get_backend,
)
from repro.errors import FrameworkError
from repro.framework import (
    MapReduceSpec,
    MemoryMode,
    ReduceStrategy,
)


def _spec(**kw):
    def m(key, value, emit, const):
        emit(b"k", b"v")

    return MapReduceSpec(name="t", map_record=m, **kw)


class TestJobPlanNormalise:
    def test_string_modes_coerced(self):
        p = JobPlan(spec=_spec(), mode="SI", reduce_mode="G").normalised()
        assert p.mode is MemoryMode.SI
        assert p.reduce_mode is MemoryMode.G

    def test_reduce_mode_defaults_to_mode(self):
        p = JobPlan(spec=_spec(), mode=MemoryMode.SO).normalised()
        assert p.reduce_mode is MemoryMode.SO

    def test_auto_leaves_reduce_mode_open(self):
        p = JobPlan(spec=_spec(), mode="auto").normalised()
        assert p.mode == "auto"
        assert p.reduce_mode is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(FrameworkError):
            JobPlan(spec=_spec(), engine="cuda").normalised()

    def test_mars_labels_and_mode(self):
        p = JobPlan(spec=_spec(), engine=ENGINE_MARS).normalised()
        assert p.result_mode == "Mars"
        assert p.input_label() == "mars_in.t"
        assert p.shuffle_label() == "mars_shuf.t"

    def test_batched_labels(self):
        p = JobPlan(spec=_spec(), batching=BatchPolicy(3)).normalised()
        assert p.input_label(2) == "stream.t.2"
        assert p.intermediate_label() == "stream.inter.t"
        assert p.shuffle_label() == "stream.shuf.t"

    def test_batch_policy_validation(self):
        with pytest.raises(FrameworkError):
            BatchPolicy(n_batches=0).validate()


class TestRegistry:
    def test_known_backends(self):
        from repro.backend import DistributedBackend

        assert set(BACKENDS) == {"sim", "fast", "columnar", "dist"}
        assert isinstance(get_backend("sim"), SimBackend)
        assert isinstance(get_backend("fast"), FastBackend)
        assert isinstance(get_backend("dist"), DistributedBackend)
        assert get_backend("columnar").columnar is True

    def test_instance_passthrough(self):
        b = FastBackend()
        assert get_backend(b) is b

    def test_unknown_name_lists_choices(self):
        with pytest.raises(FrameworkError, match="sim"):
            get_backend("gpu")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(get_backend(None), SimBackend)
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert isinstance(get_backend(None), FastBackend)
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert isinstance(get_backend(None), SimBackend)

