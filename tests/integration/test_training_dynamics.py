"""Cross-cutting training-dynamics checks that tie subsystems together."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.data import make_blobs
from repro.nn import MLP
from repro.exec import RunConfig, SimulatedTrainer
from repro.optim import StepDecay
from repro.sim import ClusterConfig


@pytest.fixture(scope="module")
def ds():
    return make_blobs(n_samples=600, num_classes=5, dim=16, sep=1.6, noise=1.1, seed=4)


@pytest.fixture(scope="module")
def factory():
    return lambda: MLP(16, (32,), 5, seed=3)


def simulated(method, factory, ds, cluster, **fields):
    config = RunConfig(
        method, factory, ds, num_workers=cluster.num_workers, cluster=cluster,
        **fields,
    )
    return SimulatedTrainer(config)


def run(ds, factory, method="dgs", **kw):
    defaults = dict(
        cluster=ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02),
        batch_size=32,
        total_iterations=220,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
    )
    defaults.update(kw)
    return simulated(method, factory, ds, **defaults).run()


class TestLRSchedule:
    def test_step_decay_reduces_late_updates(self, ds, factory):
        """With an immediate ×0.001 decay, training barely moves."""
        tiny = run(
            ds, factory,
            schedule=StepDecay(0.1, milestones=(0.0,), factor=0.001),
        )
        normal = run(ds, factory)
        assert tiny.final_loss > normal.final_loss


class TestCompressionAccounting:
    def test_upload_ratio_tracks_R(self, ds, factory):
        """Upload compression ≈ dense/(2R·dense) = 1/(2R) for COO."""
        r = run(ds, factory, hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.02, min_sparse_size=0))
        ratio = r.upload_dense_bytes / r.upload_bytes
        assert 10 < ratio < 30  # ideal 25, headers/small layers eat a bit

    def test_download_cheaper_with_secondary(self, ds, factory):
        base = run(ds, factory, secondary_compression=False)
        sec = run(ds, factory, secondary_compression=True)
        assert sec.download_bytes < base.download_bytes

    def test_dense_equiv_consistent_across_methods(self, ds, factory):
        """Dense-equivalent upload bytes depend only on model size and
        iteration count — identical for every method."""
        a = run(ds, factory, method="asgd")
        b = run(ds, factory, method="dgs")
        assert a.upload_dense_bytes == b.upload_dense_bytes


class TestVirtualTime:
    def test_makespan_scales_with_compute_mean(self, ds, factory):
        slow = run(ds, factory, cluster=ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.2))
        fast = run(ds, factory, cluster=ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02))
        assert slow.makespan_s > 4 * fast.makespan_s

    def test_equal_iterations_regardless_of_bandwidth(self, ds, factory):
        a = run(ds, factory, cluster=ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02))
        b = run(ds, factory, cluster=ClusterConfig.with_bandwidth(4, 0.001, compute_mean_s=0.02))
        assert a.total_iterations == b.total_iterations
        assert b.makespan_s > a.makespan_s

    def test_loss_vs_time_and_step_agree_on_values(self, ds, factory):
        r = run(ds, factory)
        np.testing.assert_array_equal(r.loss_vs_step.ys, r.loss_vs_time.ys)


class TestWorkerEquity:
    def test_homogeneous_workers_share_iterations(self, ds, factory):
        trainer = simulated(
            "dgs", factory, ds,
            ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.05),
            batch_size=32, total_iterations=200,
            hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0), seed=0,
        )
        trainer.run()
        counts = [w.iteration for w in trainer.workers]
        assert max(counts) - min(counts) <= 5  # near-even split

    def test_straggler_contributes_less(self, ds, factory):
        from repro.sim import ComputeModel, LinkModel

        cluster = ClusterConfig(
            num_workers=4,
            compute=ComputeModel(mean_s=0.05, jitter=0.0, heterogeneity=0.0),
            uplink=LinkModel.gbps(10),
            downlink=LinkModel.gbps(10),
            seed=0,
        )
        trainer = simulated(
            "asgd", factory, ds, cluster, batch_size=32, total_iterations=200,
            hyper=Hyper(lr=0.1), seed=0,
        )
        # make worker 0 three times slower, bypassing the heterogeneity RNG
        trainer._speed = np.array([3.0, 1.0, 1.0, 1.0])
        trainer.run()
        counts = [w.iteration for w in trainer.workers]
        assert counts[0] < min(counts[1:]) * 0.6
