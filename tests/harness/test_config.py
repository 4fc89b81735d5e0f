"""Workload and cluster presets."""

import pytest

from repro.harness import RESNET18_WIRE_BYTES, WORKLOADS, get_workload, paper_cluster


class TestWorkloads:
    def test_all_presets_present(self):
        assert {"blobs", "cifar10", "cifar10-resnet", "imagenet"} <= set(WORKLOADS)

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_dataset_fast_mode_is_smaller(self):
        wl = get_workload("blobs")
        assert wl.dataset(fast=True).n_train < wl.dataset(fast=False).n_train

    def test_model_factory_deterministic(self):
        wl = get_workload("blobs")
        import numpy as np

        m1, m2 = wl.model_factory(seed=3)(), wl.model_factory(seed=3)()
        for (_, a), (_, b) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_schedule_decays_at_60_80(self):
        wl = get_workload("cifar10")
        s = wl.schedule(epochs=10)
        assert s(5.9) == pytest.approx(wl.hyper.lr)
        assert s(6.1) == pytest.approx(wl.hyper.lr * 0.1)
        assert s(8.1) == pytest.approx(wl.hyper.lr * 0.01)

    def test_schedule_lr_override(self):
        wl = get_workload("cifar10")
        assert wl.schedule(epochs=10, lr=0.05)(0) == pytest.approx(0.05)

    def test_total_iterations(self):
        wl = get_workload("blobs")
        ds = wl.dataset(fast=False)
        expected = wl.epochs * ds.n_train // wl.batch_size
        assert wl.total_iterations(4, fast=False) == expected


class TestPaperCluster:
    def test_wire_scale_targets_resnet18(self):
        wl = get_workload("cifar10")
        model = wl.model_factory(0)()
        cluster = paper_cluster(8, 10, model)
        assert cluster.wire_scale * 4 * model.num_parameters() == pytest.approx(
            RESNET18_WIRE_BYTES
        )

    def test_half_duplex(self):
        wl = get_workload("cifar10")
        cluster = paper_cluster(4, 1, wl.model_factory(0)())
        assert cluster.duplex == "half"
        assert cluster.uplink.bandwidth_bytes_per_s == pytest.approx(1e9 / 8)

