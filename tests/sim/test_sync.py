"""Synchronous SSGD trainer on the simulated cluster."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.exec import RunConfig, SimulatedTrainer, SynchronousTrainer
from repro.sim import ClusterConfig, ComputeModel, LinkModel


def make(tiny_dataset, tiny_model_factory, method="asgd", rounds=40, **kw):
    defaults = dict(
        cluster=ClusterConfig.with_bandwidth(3, 10, compute_mean_s=0.05),
        batch_size=16,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
    )
    defaults.update(kw)
    n = defaults["cluster"].num_workers
    config = RunConfig(
        method, tiny_model_factory, tiny_dataset, num_workers=n, total_iterations=rounds * n,
        **defaults,
    )
    return SynchronousTrainer(config)


class TestSyncBasics:
    def test_learns(self, tiny_dataset, tiny_model_factory):
        r = make(tiny_dataset, tiny_model_factory, rounds=60).run()
        assert r.final_accuracy > 0.75
        assert r.rounds == 60

    def test_curves_lengths(self, tiny_dataset, tiny_model_factory):
        r = make(tiny_dataset, tiny_model_factory, rounds=10).run()
        assert len(r.loss_vs_step) == 10
        assert r.makespan_s > 0

    def test_invalid_rounds(self, tiny_dataset, tiny_model_factory):
        with pytest.raises(ValueError):
            make(tiny_dataset, tiny_model_factory, rounds=0)

    @pytest.mark.parametrize("method", ["terngrad", "qsgd"])
    def test_quantised_uploads_are_aggregated(self, tiny_dataset, tiny_model_factory, method):
        """Payloads without ``add_into`` (TernGrad, QSGD) are summed into the
        aggregation arena through ``to_dense`` at its dtype."""
        r = make(tiny_dataset, tiny_model_factory, method=method, rounds=5).run()
        assert r.rounds == 5 and np.isfinite(r.final_loss)

    def test_sparse_ssgd_gradient_dropping(self, tiny_dataset, tiny_model_factory):
        """GD was originally a synchronous method (§2) — it must train here."""
        r = make(tiny_dataset, tiny_model_factory, method="gd_async", rounds=60).run()
        assert r.final_accuracy > 0.75

    def test_sync_samomentum_future_work(self, tiny_dataset, tiny_model_factory):
        """§6: SAMomentum as a synchronous method."""
        r = make(tiny_dataset, tiny_model_factory, method="dgs", rounds=60).run()
        assert r.final_accuracy > 0.75


class TestBarrierEffects:
    def test_straggler_time_zero_when_homogeneous(self, tiny_dataset, tiny_model_factory):
        cluster = ClusterConfig(
            num_workers=3,
            compute=ComputeModel(mean_s=0.05, jitter=0.0, heterogeneity=0.0),
            uplink=LinkModel.gbps(10),
            downlink=LinkModel.gbps(10),
        )
        r = make(tiny_dataset, tiny_model_factory, cluster=cluster, rounds=10).run()
        assert r.straggler_time_s == pytest.approx(0.0)

    def test_straggler_time_grows_with_heterogeneity(self, tiny_dataset, tiny_model_factory):
        def run(het):
            cluster = ClusterConfig(
                num_workers=4,
                compute=ComputeModel(mean_s=0.05, jitter=0.05, heterogeneity=het),
                uplink=LinkModel.gbps(10),
                downlink=LinkModel.gbps(10),
            )
            return make(tiny_dataset, tiny_model_factory, cluster=cluster, rounds=20).run()

        assert run(0.5).straggler_time_s > run(0.01).straggler_time_s

    def test_async_beats_sync_with_stragglers(self, tiny_dataset, tiny_model_factory):
        """The paper's §1 motivation: worker lag hurts SSGD throughput."""
        cluster = ClusterConfig(
            num_workers=4,
            compute=ComputeModel(mean_s=0.05, jitter=0.1, heterogeneity=0.6),
            uplink=LinkModel.gbps(10),
            downlink=LinkModel.gbps(10),
            seed=0,
        )
        sync = make(tiny_dataset, tiny_model_factory, cluster=cluster, rounds=20).run()
        async_tr = SimulatedTrainer(
            RunConfig(
                "asgd", tiny_model_factory, tiny_dataset, num_workers=4,
                batch_size=16, total_iterations=80,
                hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0), seed=0,
                cluster=cluster,
            )
        ).run()
        # Equal sample budgets: async should push samples faster.
        assert async_tr.throughput > sync.throughput


class TestAggregation:
    def test_average_semantics(self, tiny_dataset, tiny_model_factory):
        """One round of dense SSGD applies the mean of worker updates."""
        from repro.core.layerops import parameters_of

        trainer = make(tiny_dataset, tiny_model_factory, rounds=1)
        theta0 = parameters_of(trainer.model)
        r = trainer.run()
        theta1 = parameters_of(trainer.model)
        moved = sum(np.abs(theta1[k] - theta0[k]).sum() for k in theta0)
        assert moved > 0
