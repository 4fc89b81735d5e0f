"""End-to-end training sanity: every method learns; orderings hold on easy data."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.data import make_blobs
from repro.exec import RunConfig, SimulatedTrainer
from repro.harness.local import LocalTrainer
from repro.nn import MLP
from repro.optim import StepDecay
from repro.sim import ClusterConfig


@pytest.fixture(scope="module")
def setup():
    ds = make_blobs(n_samples=600, num_classes=5, dim=16, sep=1.8, noise=1.0, seed=2)
    factory = lambda: MLP(16, (32,), 5, seed=11)
    return ds, factory


HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, secondary_ratio=0.1, min_sparse_size=0)


def simulated(method, factory, ds, cluster, **fields):
    config = RunConfig(
        method, factory, ds, num_workers=cluster.num_workers, cluster=cluster,
        **fields,
    )
    return SimulatedTrainer(config)


@pytest.mark.parametrize("method", ["asgd", "gd_async", "dgc_async", "dgs"])
def test_method_learns_in_simulation(setup, method):
    ds, factory = setup
    trainer = simulated(
        method, factory, ds,
        ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02),
        batch_size=32, total_iterations=250, hyper=HYPER, seed=0,
    )
    r = trainer.run()
    assert r.final_accuracy > 0.85, f"{method} failed to learn: {r.final_accuracy}"


def test_msgd_baseline_learns(setup):
    ds, factory = setup
    r = LocalTrainer(factory, ds, 32, 250, lr=0.1, momentum=0.7,
                     schedule=StepDecay(0.1, (8.0,), 0.1), seed=0).run()
    assert r.final_accuracy > 0.9


def test_dgs_secondary_compression_still_learns(setup):
    ds, factory = setup
    trainer = simulated(
        "dgs", factory, ds,
        ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02),
        batch_size=32, total_iterations=250, hyper=HYPER,
        secondary_compression=True, seed=0,
    )
    r = trainer.run()
    assert r.final_accuracy > 0.85


def test_loss_decreases_over_training(setup):
    ds, factory = setup
    trainer = simulated(
        "dgs", factory, ds,
        ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02),
        batch_size=32, total_iterations=250, hyper=HYPER, seed=0,
    )
    r = trainer.run()
    first_quarter = np.mean(r.loss_vs_step.ys[: len(r.loss_vs_step) // 4])
    last_quarter = np.mean(r.loss_vs_step.ys[-len(r.loss_vs_step) // 4 :])
    assert last_quarter < first_quarter / 2


def test_staleness_grows_with_workers(setup):
    ds, factory = setup

    def staleness(n):
        trainer = simulated(
            "asgd", factory, ds,
            ClusterConfig.with_bandwidth(n, 10, compute_mean_s=0.02),
            batch_size=32, total_iterations=40 * n, hyper=HYPER, seed=0,
        )
        return trainer.run().mean_staleness

    s2, s8 = staleness(2), staleness(8)
    assert s8 > s2
    assert s8 == pytest.approx(7, abs=1.5)  # ~N−1 for homogeneous workers
