"""Backend shape, table lookup, and the ambient default."""

import dataclasses

import pytest

from repro.core import Hyper
from repro.exec import (
    BACKENDS,
    Backend,
    RemoteTrainer,
    RunConfig,
    SimulatedTrainer,
    SynchronousTrainer,
    Trainer,
    get_backend,
    use_backend,
)

BUILTINS = ("process", "socket", "simulated", "sync")


def _config(tiny_dataset, tiny_model_factory):
    return RunConfig(
        "dgs", tiny_model_factory, tiny_dataset, num_workers=2, batch_size=16,
        total_iterations=4, hyper=Hyper(lr=0.1),
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert sorted(BACKENDS) == sorted(BUILTINS)

    @pytest.mark.parametrize(
        "name,engine,clock",
        [
            ("process", RemoteTrainer, "wall"),
            ("socket", RemoteTrainer, "wall"),
            ("simulated", SimulatedTrainer, "virtual"),
            ("sync", SynchronousTrainer, "virtual"),
        ],
    )
    def test_get_backend_resolves(self, name, engine, clock, tiny_dataset, tiny_model_factory):
        backend = get_backend(name)
        assert backend.name == name
        assert backend.clock == clock
        config = _config(tiny_dataset, tiny_model_factory)
        assert isinstance(Trainer(config, backend=name).engine, engine)

    def test_remote_backends_differ_only_in_transport(self, tiny_dataset, tiny_model_factory):
        config = _config(tiny_dataset, tiny_model_factory)
        assert Trainer(config, backend="process").engine.transport == "pipe"
        assert Trainer(config, backend="socket").engine.transport == "tcp"

    def test_builtins_satisfy_protocol(self):
        for name in BUILTINS:
            assert isinstance(get_backend(name), Backend)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="simulated"):
            get_backend("quantum")

    def test_instance_passes_through(self):
        backend = get_backend("process")
        assert get_backend(backend) is backend

    def test_custom_backend_immediately_resolvable(self, monkeypatch):
        custom = dataclasses.replace(BACKENDS["process"], name="custom")
        monkeypatch.setitem(BACKENDS, "custom", custom)
        assert get_backend("custom") is custom
        with use_backend("custom"):
            assert get_backend(None) is custom


class TestAmbientDefault:
    def test_default_is_simulated(self):
        assert get_backend(None) is get_backend("simulated")

    def test_use_backend_swaps_and_restores(self):
        with use_backend("process") as name:
            assert name == "process"
            assert get_backend(None) is get_backend("process")
        assert get_backend(None) is get_backend("simulated")

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("sync"):
                raise RuntimeError("boom")
        assert get_backend(None) is get_backend("simulated")

    def test_use_backend_fails_fast_on_unknown(self):
        with pytest.raises(KeyError):
            with use_backend("quantum"):
                pass  # pragma: no cover
        assert get_backend(None) is get_backend("simulated")


class TestMeasureDeclarations:
    def test_measures_are_trainresult_fields(self):
        from dataclasses import fields

        from repro.exec import TrainResult

        known = {f.name for f in fields(TrainResult)}
        for name in BUILTINS:
            unknown = get_backend(name).measures - known
            assert not unknown, f"{name} declares non-existent fields {unknown}"

    def test_wall_backends_do_not_claim_virtual_only_fields(self):
        for name in ("process", "socket"):
            measures = get_backend(name).measures
            assert "uplink_utilisation" not in measures
            assert "loss_vs_time" not in measures
