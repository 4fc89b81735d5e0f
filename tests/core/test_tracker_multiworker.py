"""Multi-worker tracker scenarios beyond the basic invariants."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import TopKSparsifier, encode_sparse
from repro.core.tracker import ModelDifferenceTracker

SHAPES = OrderedDict([("w", (30,))])


def upd(rng, scale=1.0):
    arr = rng.normal(size=30) * scale
    arr[np.abs(arr) < 0.5 * scale] = 0.0
    return OrderedDict([("w", encode_sparse(arr))])


class TestManyWorkers:
    def test_each_worker_sees_all_updates_once(self, rng):
        """Five workers with arbitrary sync patterns: at drain, every worker
        has received exactly M — no duplicates, no gaps."""
        tr = ModelDifferenceTracker(SHAPES, 5)
        received = [np.zeros(30) for _ in range(5)]
        sched = rng.integers(0, 5, size=60)
        for step, k in enumerate(sched):
            tr.apply_update(upd(rng))
            if step % 3 == 0:
                tr.model_difference(int(k))["w"].add_into(received[int(k)])
        for k in range(5):
            tr.model_difference(k)["w"].add_into(received[k])
            # atol covers float32 wire rounding of the downloaded diffs.
            np.testing.assert_allclose(received[k], tr.M["w"], atol=1e-5)

    def test_idle_worker_catches_up_in_one_download(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 3)
        for _ in range(25):
            tr.apply_update(upd(rng))
            tr.model_difference(0)  # only worker 0 syncs
        assert tr.staleness(2) == 25
        theta = np.zeros(30)
        tr.model_difference(2)["w"].add_into(theta)
        np.testing.assert_allclose(theta, tr.M["w"], atol=1e-5)
        assert tr.staleness(2) == 0

    def test_per_worker_secondary_backlogs_are_independent(self, rng):
        """With secondary compression, each worker's pending difference
        drains independently of the others' sync cadence."""
        tr = ModelDifferenceTracker(
            SHAPES, 2, secondary=TopKSparsifier(0.1, min_sparse_size=0)
        )
        for _ in range(10):
            tr.apply_update(upd(rng, scale=2.0))
        # Worker 0 drains over many syncs; worker 1 stays idle.
        got0 = np.zeros(30)
        for _ in range(40):
            tr.model_difference(0)["w"].add_into(got0)
        pending1_before = tr.M["w"] - tr.vk(1)["w"]
        np.testing.assert_allclose(got0, tr.M["w"], atol=1e-9)
        # Worker 1's backlog untouched by worker 0's drain:
        np.testing.assert_array_equal(tr.M["w"] - tr.vk(1)["w"], pending1_before)

    def test_interleaved_sparse_updates_commute(self, rng):
        """M depends only on the multiset of updates, not arrival order."""
        updates = [upd(np.random.default_rng(i)) for i in range(12)]
        a = ModelDifferenceTracker(SHAPES, 1, dtype=np.float64)
        b = ModelDifferenceTracker(SHAPES, 1, dtype=np.float64)
        for u in updates:
            a.apply_update(u)
        for u in reversed(updates):
            b.apply_update(u)
        np.testing.assert_allclose(a.M["w"], b.M["w"], atol=1e-12)
