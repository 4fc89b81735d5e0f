"""Mini-batch loading with per-worker sharding.

Each distributed worker owns a disjoint shard of the training set (as in the
paper's data-parallel setup) and draws shuffled mini-batches from it at its
own pace — the loader is an infinite iterator because asynchronous workers
do not share epoch boundaries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .synthetic import Dataset

__all__ = ["BatchIterator", "DataLoader"]


class BatchIterator:
    """Infinite shuffled mini-batch stream over (x, y) arrays."""

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.x = x
        self.y = y
        self.batch_size = min(batch_size, len(x))
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self._order = self._rng.permutation(len(x))
        self._pos = 0
        self.epoch = 0
        self.batches_served = 0

    @property
    def batches_per_epoch(self) -> int:
        n = len(self.x)
        return n // self.batch_size if self.drop_last else -(-n // self.batch_size)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next (x, y) mini-batch, reshuffling at epoch end."""
        n = len(self.x)
        if self._pos + self.batch_size > n:
            if not self.drop_last and self._pos < n:
                idx = self._order[self._pos :]
                self._reshuffle()
                self.batches_served += 1
                return self.x[idx], self.y[idx]
            self._reshuffle()
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        self.batches_served += 1
        return self.x[idx], self.y[idx]

    def _reshuffle(self) -> None:
        self._order = self._rng.permutation(len(self.x))
        self._pos = 0
        self.epoch += 1

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()


class DataLoader:
    """Builds per-worker batch iterators over a :class:`Dataset`."""

    def __init__(self, dataset: Dataset, batch_size: int, seed: int = 0) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed

    def worker_iterator(self, worker_id: int, num_workers: int) -> BatchIterator:
        """Shard the training set and return worker ``worker_id``'s stream."""
        shard = self.dataset.shard(num_workers, worker_id)
        return BatchIterator(
            shard.x_train,
            shard.y_train,
            self.batch_size,
            seed=self.seed * 1000 + worker_id,
        )
