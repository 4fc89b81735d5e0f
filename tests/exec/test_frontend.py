"""The unified Trainer front-end: one RunConfig, four backends."""

import pytest

from repro.core import Hyper
from repro.exec import (
    RunConfig,
    Trainer,
    collect_results,
    get_backend,
    train,
    use_config_overrides,
    validate_result,
)
from repro.sim import ClusterConfig

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0)
BACKENDS = ("process", "socket", "simulated", "sync")


def tiny_config(tiny_dataset, tiny_model_factory, **overrides):
    kwargs = dict(
        num_workers=2,
        batch_size=16,
        total_iterations=40,
        hyper=HYPER,
        seed=0,
    )
    kwargs.update(overrides)
    return RunConfig("dgs", tiny_model_factory, tiny_dataset, **kwargs)


class TestRunConfig:
    def test_rejects_bad_counts(self, tiny_dataset, tiny_model_factory):
        with pytest.raises(ValueError, match="num_workers"):
            tiny_config(tiny_dataset, tiny_model_factory, num_workers=0)
        with pytest.raises(ValueError, match="batch_size"):
            tiny_config(tiny_dataset, tiny_model_factory, batch_size=0)
        with pytest.raises(ValueError, match="total_iterations"):
            tiny_config(tiny_dataset, tiny_model_factory, total_iterations=0)

    def test_budget_slicing(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(tiny_dataset, tiny_model_factory, num_workers=4, total_iterations=100)
        assert config.iterations_per_worker() == 25
        assert config.rounds() == 25

    def test_budget_slicing_never_zero(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(tiny_dataset, tiny_model_factory, num_workers=8, total_iterations=4)
        assert config.iterations_per_worker() == 1
        assert config.rounds() == 1

    def test_resolved_cluster_default(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(tiny_dataset, tiny_model_factory, num_workers=3)
        assert config.resolved_cluster().num_workers == 3

    def test_cluster_worker_mismatch_rejected(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(
            tiny_dataset,
            tiny_model_factory,
            num_workers=2,
            cluster=ClusterConfig.with_bandwidth(3, 10),
        )
        for name in ("simulated", "sync"):
            with pytest.raises(ValueError, match="disagrees"):
                Trainer(config, backend=name)


class TestTrainerFrontend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_returns_valid_unified_result(
        self, backend, tiny_dataset, tiny_model_factory
    ):
        spec = get_backend(backend)
        result = train(tiny_config(tiny_dataset, tiny_model_factory), backend=backend)
        assert validate_result(result, measures=spec.measures) == []
        assert result.backend == backend
        assert result.clock == spec.clock
        assert result.num_workers == 2
        assert result.final_accuracy >= 0.5  # it learned: chance is 0.25

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_and_sample_accounting(self, backend, tiny_dataset, tiny_model_factory):
        result = train(tiny_config(tiny_dataset, tiny_model_factory), backend=backend)
        assert result.total_iterations == 40
        # every applied gradient consumed one batch of 16
        assert result.samples_processed == 40 * 16

    def test_trainer_exposes_engine_for_instrumentation(self, tiny_dataset, tiny_model_factory):
        trainer = Trainer(tiny_config(tiny_dataset, tiny_model_factory), backend="process")
        assert trainer.engine.server.timestamp == 0  # pre-run state is reachable
        result = trainer.run()
        assert trainer.engine.server.timestamp == result.total_iterations

    def test_default_backend_is_simulated(self, tiny_dataset, tiny_model_factory):
        result = train(tiny_config(tiny_dataset, tiny_model_factory))
        assert result.backend == "simulated"
        assert result.clock == "virtual"

    def test_ambient_backend_honoured(self, tiny_dataset, tiny_model_factory):
        from repro.exec import use_backend

        with use_backend("sync"):
            result = train(tiny_config(tiny_dataset, tiny_model_factory))
        assert result.backend == "sync"
        assert result.rounds == 20

    def test_single_node_method_rejected_on_ps_backends(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(tiny_dataset, tiny_model_factory)
        config.method = "msgd"
        for backend in ("process", "socket", "simulated"):
            with pytest.raises(ValueError, match="single-node"):
                Trainer(config, backend=backend)

    def test_sync_accepts_single_node_method(self, tiny_dataset, tiny_model_factory):
        # SSGD has no parameter server, so the local baseline spec is legal.
        config = tiny_config(tiny_dataset, tiny_model_factory)
        config.method = "msgd"
        result = train(config, backend="sync")
        assert result.method == "msgd"


class TestCliScopes:
    """``train()`` is the one run path, so the CLI's scopes reach it."""

    def test_train_reports_to_collect_results(self, tiny_dataset, tiny_model_factory):
        config = tiny_config(tiny_dataset, tiny_model_factory)
        with collect_results() as runs:
            result = train(config, backend="simulated")
        assert len(runs) == 1
        assert runs[0][1] is result

    def test_train_applies_config_overrides(self, tmp_path, tiny_dataset, tiny_model_factory):
        path = tmp_path / "scoped.ckpt"
        config = tiny_config(tiny_dataset, tiny_model_factory)
        with use_config_overrides(checkpoint_every=2, checkpoint_path=str(path)):
            train(config, backend="process")
        assert path.exists()


class TestRunDistributedBackendParam:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_via_harness(self, backend):
        from repro.exec import TrainResult
        from repro.harness import get_workload
        from repro.harness.runners import run_distributed

        result = run_distributed(
            "dgs",
            get_workload("cifar10"),
            2,
            total_iterations=16,
            fast=True,
            backend=backend,
        )
        assert isinstance(result, TrainResult)
        assert result.backend == backend


@pytest.mark.parametrize("backend", ["simulated", "sync"])
def test_virtual_clock_engines_refuse_checkpoint_settings(
    backend, tmp_path, tiny_dataset, tiny_model_factory
):
    """Neither virtual-clock engine writes or reads a checkpoint, so each
    refuses the settings at construction instead of running without them."""
    out = tmp_path / "out.ckpt"
    settings = {
        "checkpoint_every": {"checkpoint_every": 5, "checkpoint_path": str(out)},
        "restore_from": {"restore_from": str(tmp_path / "in.ckpt")},
    }
    for field, fields in settings.items():
        config = tiny_config(tiny_dataset, tiny_model_factory, **fields)
        with pytest.raises(ValueError, match=rf"{field} .* {backend} backend.* process and socket"):
            Trainer(config, backend=backend)
    assert not out.exists()
