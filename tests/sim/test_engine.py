"""Event-driven simulator behaviour."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.exec import RunConfig, SimulatedTrainer
from repro.sim import ClusterConfig, ComputeModel, LinkModel


def make_trainer(tiny_dataset, tiny_model_factory, method="dgs", **kw):
    defaults = dict(
        cluster=ClusterConfig.with_bandwidth(3, 10, compute_mean_s=0.05),
        batch_size=16,
        total_iterations=60,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
    )
    defaults.update(kw)
    num_workers = defaults["cluster"].num_workers
    return SimulatedTrainer(
        RunConfig(method, tiny_model_factory, tiny_dataset, num_workers=num_workers, **defaults)
    )


class TestRunBasics:
    def test_completes_exact_iterations(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory).run()
        assert r.total_iterations == 60
        assert r.samples_processed == 60 * 16

    def test_time_is_monotone(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory).run()
        xs = r.loss_vs_time.xs
        assert all(a <= b for a, b in zip(xs, xs[1:]))
        assert r.makespan_s > 0

    def test_learns(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory, total_iterations=150).run()
        assert r.final_accuracy > 0.7

    def test_eval_every_produces_checkpoints(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory, eval_every=20).run()
        assert len(r.acc_vs_step) == 3

    def test_staleness_positive_multiworker(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory).run()
        assert r.mean_staleness > 0

    def test_single_worker_zero_staleness(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(
            tiny_dataset,
            tiny_model_factory,
            cluster=ClusterConfig.with_bandwidth(1, 10, compute_mean_s=0.05),
        ).run()
        assert r.mean_staleness == 0

    def test_msgd_rejected(self, tiny_dataset, tiny_model_factory):
        with pytest.raises(ValueError):
            make_trainer(tiny_dataset, tiny_model_factory, method="msgd")

    def test_invalid_iterations(self, tiny_dataset, tiny_model_factory):
        with pytest.raises(ValueError):
            make_trainer(tiny_dataset, tiny_model_factory, total_iterations=0)


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_dataset, tiny_model_factory):
        r1 = make_trainer(tiny_dataset, tiny_model_factory).run()
        r2 = make_trainer(tiny_dataset, tiny_model_factory).run()
        assert r1.final_loss == r2.final_loss
        assert r1.makespan_s == r2.makespan_s

    def test_different_seed_differs(self, tiny_dataset, tiny_model_factory):
        r1 = make_trainer(tiny_dataset, tiny_model_factory, seed=0).run()
        r2 = make_trainer(tiny_dataset, tiny_model_factory, seed=1).run()
        assert r1.final_loss != r2.final_loss


class TestNetworkEffects:
    def test_lower_bandwidth_is_slower_for_dense(self, tiny_dataset, tiny_model_factory):
        fast = make_trainer(
            tiny_dataset, tiny_model_factory, method="asgd",
            cluster=ClusterConfig.with_bandwidth(3, 10, compute_mean_s=0.01),
        ).run()
        slow = make_trainer(
            tiny_dataset, tiny_model_factory, method="asgd",
            cluster=ClusterConfig.with_bandwidth(3, 0.0001, compute_mean_s=0.01),
        ).run()
        assert slow.makespan_s > fast.makespan_s

    def test_wire_scale_slows_everything(self, tiny_dataset, tiny_model_factory):
        base_cluster = ClusterConfig.with_bandwidth(3, 0.01, compute_mean_s=0.01)
        scaled_cluster = ClusterConfig.with_bandwidth(3, 0.01, compute_mean_s=0.01)
        scaled_cluster.wire_scale = 100.0
        base = make_trainer(tiny_dataset, tiny_model_factory, method="asgd", cluster=base_cluster).run()
        scaled = make_trainer(tiny_dataset, tiny_model_factory, method="asgd", cluster=scaled_cluster).run()
        assert scaled.makespan_s > base.makespan_s

    def test_half_duplex_slower_than_full(self, tiny_dataset, tiny_model_factory):
        def cluster(duplex):
            c = ClusterConfig.with_bandwidth(4, 0.001, compute_mean_s=0.01)
            c.duplex = duplex
            return c

        full = make_trainer(tiny_dataset, tiny_model_factory, method="asgd", cluster=cluster("full")).run()
        half = make_trainer(tiny_dataset, tiny_model_factory, method="asgd", cluster=cluster("half")).run()
        assert half.makespan_s > full.makespan_s

    def test_dgs_cheaper_on_wire_than_asgd(self, tiny_dataset, tiny_model_factory):
        asgd = make_trainer(tiny_dataset, tiny_model_factory, method="asgd").run()
        dgs = make_trainer(
            tiny_dataset, tiny_model_factory, method="dgs",
            hyper=Hyper(ratio=0.02, min_sparse_size=0), secondary_compression=True,
        ).run()
        assert dgs.upload_bytes < asgd.upload_bytes / 5
        assert dgs.download_bytes < asgd.download_bytes / 5

    def test_compression_ratio_reported(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory).run()
        assert r.compression_ratio > 1.0

    def test_utilisation_in_unit_range(self, tiny_dataset, tiny_model_factory):
        r = make_trainer(tiny_dataset, tiny_model_factory).run()
        assert 0.0 <= r.uplink_utilisation <= 1.0
        assert 0.0 <= r.downlink_utilisation <= 1.0


class TestThroughput:
    def test_more_workers_more_throughput_when_compute_bound(
        self, tiny_dataset, tiny_model_factory
    ):
        def run(n):
            return make_trainer(
                tiny_dataset, tiny_model_factory,
                cluster=ClusterConfig.with_bandwidth(n, 10, compute_mean_s=0.1),
                total_iterations=40,
            ).run()

        assert run(4).throughput > 2.0 * run(1).throughput
