"""Analytical model vs the event-driven simulator: they must agree."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.data import make_blobs
from repro.exec import RunConfig, SimulatedTrainer
from repro.nn import MLP
from repro.sim import ClusterConfig, ComputeModel, LinkModel
from repro.sim.analysis import predict


@pytest.fixture(scope="module")
def ds():
    return make_blobs(n_samples=400, num_classes=4, dim=12, seed=1)


@pytest.fixture(scope="module")
def factory():
    return lambda: MLP(12, (24,), 4, seed=7)


def cluster(n, gbps, mean=0.05, duplex="half", wire_scale=1.0):
    return ClusterConfig(
        num_workers=n,
        compute=ComputeModel(mean_s=mean, jitter=0.0, heterogeneity=0.0),
        uplink=LinkModel.gbps(gbps),
        downlink=LinkModel.gbps(gbps),
        duplex=duplex,
        wire_scale=wire_scale,
        seed=0,
    )


def simulate(ds, factory, cl, method="asgd", iters=200):
    config = RunConfig(
        method, factory, ds, num_workers=cl.num_workers, batch_size=16, total_iterations=iters,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0), seed=0, cluster=cl,
    )
    r = SimulatedTrainer(config).run()
    per_up = r.upload_bytes / r.total_iterations
    per_down = r.download_bytes / r.total_iterations
    measured_rate = r.total_iterations / r.makespan_s
    return r, predict(cl, per_up, per_down), measured_rate


class TestModelVsSimulator:
    def test_compute_bound_regime(self, ds, factory):
        """Plenty of bandwidth: throughput ≈ N / cycle, not saturated."""
        cl = cluster(4, 10)
        _, pred, measured = simulate(ds, factory, cl)
        assert not pred.saturated
        assert measured == pytest.approx(pred.throughput_updates_per_s, rel=0.1)

    def test_saturated_regime(self, ds, factory):
        """Starved link: throughput ≈ 1/L, independent of N."""
        cl = cluster(8, 10, mean=0.05, wire_scale=10000.0)
        _, pred, measured = simulate(ds, factory, cl)
        assert pred.saturated
        assert measured == pytest.approx(pred.throughput_updates_per_s, rel=0.15)

    def test_saturation_throughput_independent_of_workers(self, ds, factory):
        cl8 = cluster(8, 10, wire_scale=10000.0)
        cl16 = cluster(16, 10, wire_scale=10000.0)
        _, _, m8 = simulate(ds, factory, cl8)
        _, _, m16 = simulate(ds, factory, cl16, iters=320)
        assert m16 == pytest.approx(m8, rel=0.1)

    def test_speedup_prediction_matches_fig6_shape(self, ds, factory):
        """The min(N, cycle/occupancy) law reproduces the measured speedup."""
        base_cl = cluster(1, 10, wire_scale=10000.0)
        _, _, rate1 = simulate(ds, factory, base_cl, iters=60)
        for n in (2, 4, 8):
            cl = cluster(n, 10, wire_scale=10000.0)
            _, pred, measured = simulate(ds, factory, cl, iters=60 * n)
            measured_speedup = measured / rate1
            assert measured_speedup == pytest.approx(pred.speedup_vs_one_worker, rel=0.2)


class TestPredictValidation:
    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            predict(cluster(2, 10), -1, 0)

    def test_full_duplex_higher_cap(self):
        half = predict(cluster(4, 1, duplex="half"), 10**6, 10**6)
        full = predict(cluster(4, 1, duplex="full"), 10**6, 10**6)
        assert full.max_update_rate_per_s > half.max_update_rate_per_s

    def test_sparser_messages_higher_cap(self):
        big = predict(cluster(4, 1), 10**7, 10**7)
        small = predict(cluster(4, 1), 10**5, 10**5)
        assert small.max_update_rate_per_s > big.max_update_rate_per_s
