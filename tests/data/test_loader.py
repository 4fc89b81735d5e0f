"""Batch iteration and per-worker sharding."""

import numpy as np
import pytest

from repro.data import BatchIterator, DataLoader, make_blobs


class TestBatchIterator:
    def test_batch_shapes(self):
        x, y = np.arange(100).reshape(50, 2).astype(float), np.arange(50)
        it = BatchIterator(x, y, batch_size=8, seed=0)
        xb, yb = it.next_batch()
        assert xb.shape == (8, 2) and yb.shape == (8,)

    def test_epoch_counter(self):
        x, y = np.zeros((20, 1)), np.zeros(20)
        it = BatchIterator(x, y, batch_size=5, seed=0)
        for _ in range(4):
            it.next_batch()
        assert it.epoch == 0
        it.next_batch()
        assert it.epoch == 1

    def test_epoch_covers_all_samples(self):
        x = np.arange(24, dtype=float).reshape(24, 1)
        it = BatchIterator(x, np.zeros(24), batch_size=6, seed=0)
        seen = np.concatenate([it.next_batch()[0].reshape(-1) for _ in range(4)])
        assert set(seen) == set(range(24))

    def test_reshuffles_between_epochs(self):
        x = np.arange(32, dtype=float).reshape(32, 1)
        it = BatchIterator(x, np.zeros(32), batch_size=32, seed=0)
        first = it.next_batch()[0].copy()
        second = it.next_batch()[0].copy()
        assert not np.array_equal(first, second)
        assert set(first.reshape(-1)) == set(second.reshape(-1))

    def test_batch_larger_than_data_clamped(self):
        it = BatchIterator(np.zeros((4, 1)), np.zeros(4), batch_size=100, seed=0)
        xb, _ = it.next_batch()
        assert len(xb) == 4

    def test_drop_last_false_yields_tail(self):
        it = BatchIterator(np.zeros((10, 1)), np.zeros(10), batch_size=4, seed=0, drop_last=False)
        sizes = [len(it.next_batch()[0]) for _ in range(3)]
        assert sorted(sizes) == [2, 4, 4]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((4, 1)), np.zeros(4), batch_size=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((4, 1)), np.zeros(5), batch_size=2)

    def test_iter_protocol(self):
        it = BatchIterator(np.zeros((8, 1)), np.zeros(8), batch_size=2, seed=0)
        stream = iter(it)
        xb, yb = next(stream)
        assert len(xb) == 2

    def test_batches_per_epoch(self):
        it = BatchIterator(np.zeros((10, 1)), np.zeros(10), batch_size=3, seed=0)
        assert it.batches_per_epoch == 3
        it2 = BatchIterator(np.zeros((10, 1)), np.zeros(10), batch_size=3, seed=0, drop_last=False)
        assert it2.batches_per_epoch == 4


class TestDataLoader:
    def test_worker_iterators_disjoint(self):
        ds = make_blobs(n_samples=100, seed=0)
        loader = DataLoader(ds, batch_size=4, seed=0)
        its = [loader.worker_iterator(w, 4) for w in range(4)]
        sizes = [len(it.x) for it in its]
        assert sum(sizes) == ds.n_train

    def test_worker_seeds_differ(self):
        ds = make_blobs(n_samples=100, seed=0)
        loader = DataLoader(ds, batch_size=4, seed=0)
        a = loader.worker_iterator(0, 2).next_batch()[0]
        b = loader.worker_iterator(1, 2).next_batch()[0]
        assert not np.array_equal(a, b)
