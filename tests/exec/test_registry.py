"""Backend protocol, registry lookup, and the ambient default."""

import pytest

import repro.exec.backend as backend_mod
from repro.exec import (
    Backend,
    RemoteBackend,
    SimulatedBackend,
    SyncBackend,
    ThreadedBackend,
    default_backend,
    get_backend,
    list_backends,
    register_backend,
    use_backend,
)

BUILTINS = ("threaded", "process", "simulated", "sync")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(list_backends())

    @pytest.mark.parametrize(
        "name,cls,clock",
        [
            ("threaded", ThreadedBackend, "wall"),
            ("process", RemoteBackend, "wall"),
            ("socket", RemoteBackend, "wall"),
            ("simulated", SimulatedBackend, "virtual"),
            ("sync", SyncBackend, "virtual"),
        ],
    )
    def test_get_backend_resolves(self, name, cls, clock):
        backend = get_backend(name)
        assert isinstance(backend, cls)
        assert backend.name == name
        assert backend.clock == clock

    def test_builtins_satisfy_protocol(self):
        for name in BUILTINS:
            assert isinstance(get_backend(name), Backend)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="simulated"):
            get_backend("quantum")

    def test_instance_passes_through(self):
        backend = get_backend("threaded")
        assert get_backend(backend) is backend

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_REGISTRY", dict(backend_mod._REGISTRY))
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ThreadedBackend())

    def test_replace_registration(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_REGISTRY", dict(backend_mod._REGISTRY))
        replacement = ThreadedBackend()
        assert register_backend(replacement, replace=True) is replacement
        assert get_backend("threaded") is replacement

    def test_custom_backend_immediately_resolvable(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_REGISTRY", dict(backend_mod._REGISTRY))

        class Custom(ThreadedBackend):
            name = "custom"

        register_backend(Custom())
        assert "custom" in list_backends()
        assert get_backend("custom").clock == "wall"


class TestAmbientDefault:
    def test_default_is_simulated(self):
        assert default_backend() == "simulated"
        assert get_backend(None) is get_backend("simulated")

    def test_use_backend_swaps_and_restores(self):
        with use_backend("threaded") as name:
            assert name == "threaded"
            assert default_backend() == "threaded"
            assert get_backend(None) is get_backend("threaded")
        assert default_backend() == "simulated"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("sync"):
                raise RuntimeError("boom")
        assert default_backend() == "simulated"

    def test_use_backend_fails_fast_on_unknown(self):
        with pytest.raises(KeyError):
            with use_backend("quantum"):
                pass  # pragma: no cover
        assert default_backend() == "simulated"


class TestMeasureDeclarations:
    def test_measures_are_trainresult_fields(self):
        from dataclasses import fields

        from repro.exec import TrainResult

        known = {f.name for f in fields(TrainResult)}
        for name in BUILTINS:
            unknown = get_backend(name).measures - known
            assert not unknown, f"{name} declares non-existent fields {unknown}"

    def test_wall_backends_do_not_claim_virtual_only_fields(self):
        for name in ("threaded", "process"):
            measures = get_backend(name).measures
            assert "uplink_utilisation" not in measures
            assert "loss_vs_time" not in measures
