"""Synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (
    Dataset,
    make_blobs,
    make_image_classes,
    synthetic_cifar10,
    synthetic_imagenet,
)


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1), 2)

    def test_properties(self):
        ds = make_blobs(n_samples=100, num_classes=3, dim=5, seed=0)
        assert ds.n_train + ds.n_val == 100
        assert ds.input_shape == (5,)

    def test_shard_disjoint_and_covering(self):
        ds = make_blobs(n_samples=103, num_classes=2, dim=3, seed=0)
        shards = [ds.shard(4, i) for i in range(4)]
        total = sum(s.n_train for s in shards)
        assert total == ds.n_train
        # Shards see non-overlapping rows: pairwise different sample sets.
        all_rows = np.concatenate([s.x_train for s in shards])
        assert all_rows.shape[0] == ds.n_train

    def test_shard_shares_validation(self):
        ds = make_blobs(n_samples=100, seed=0)
        s = ds.shard(4, 1)
        np.testing.assert_array_equal(s.x_val, ds.x_val)

    def test_shard_out_of_range(self):
        ds = make_blobs(n_samples=40, seed=0)
        with pytest.raises(ValueError):
            ds.shard(4, 4)

    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_shard_is_a_read_only_view_of_the_fancy_index_rows(self, num_shards):
        """The rows the old ``x_train[arange(n)[id::K]]`` copy held, bitwise,
        without the copy — and a shard cannot write through to the dataset."""
        ds = make_blobs(n_samples=103, num_classes=3, dim=5, seed=0)
        for shard_id in range(num_shards):
            idx = np.arange(ds.n_train)[shard_id::num_shards]
            s = ds.shard(num_shards, shard_id)
            for got, full in ((s.x_train, ds.x_train), (s.y_train, ds.y_train)):
                np.testing.assert_array_equal(got, full[idx])
                assert got.dtype == full.dtype
                assert np.shares_memory(got, full)
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 0
        assert ds.x_train.flags.writeable  # the dataset itself stays writable


class TestBlobs:
    def test_determinism(self):
        a = make_blobs(n_samples=50, seed=3)
        b = make_blobs(n_samples=50, seed=3)
        np.testing.assert_array_equal(a.x_train, b.x_train)

    def test_seed_changes_data(self):
        a = make_blobs(n_samples=50, seed=3)
        b = make_blobs(n_samples=50, seed=4)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_labels_in_range(self):
        ds = make_blobs(n_samples=200, num_classes=7, seed=0)
        assert set(np.unique(ds.y_train)).issubset(set(range(7)))

    def test_separable_when_far(self):
        ds = make_blobs(n_samples=300, num_classes=3, dim=10, sep=10.0, noise=0.1, seed=0)
        # nearest-centroid classification should be near-perfect
        centroids = np.stack([ds.x_train[ds.y_train == c].mean(axis=0) for c in range(3)])
        pred = np.linalg.norm(ds.x_val[:, None] - centroids[None], axis=2).argmin(axis=1)
        assert (pred == ds.y_val).mean() > 0.95


class TestImageClasses:
    def test_shapes(self):
        ds = make_image_classes(n_samples=80, num_classes=5, channels=3, size=8, seed=0)
        assert ds.input_shape == (3, 8, 8)
        assert ds.num_classes == 5

    def test_difficulty_monotone(self):
        """Higher difficulty ⇒ lower nearest-template accuracy."""

        def template_acc(difficulty):
            ds = make_image_classes(
                n_samples=400, num_classes=5, size=8, difficulty=difficulty, seed=0
            )
            flat = ds.x_train.reshape(len(ds.x_train), -1)
            centroids = np.stack(
                [flat[ds.y_train == c].mean(axis=0) for c in range(5)]
            )
            val = ds.x_val.reshape(len(ds.x_val), -1)
            pred = np.linalg.norm(val[:, None] - centroids[None], axis=2).argmin(axis=1)
            return (pred == ds.y_val).mean()

        assert template_acc(0.5) > template_acc(6.0)

    def test_cifar10_protocol(self):
        ds = synthetic_cifar10(n_samples=100)
        assert ds.num_classes == 10 and ds.input_shape[0] == 3

    def test_imagenet_protocol(self):
        ds = synthetic_imagenet(n_samples=200, num_classes=25)
        assert ds.num_classes == 25
        assert ds.name == "synthetic-imagenet"
