"""Model Difference Tracking (Algorithm 2 / Eq. 1–6) invariants."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import SparseTensor, TopKSparsifier, encode_sparse
from repro.core.tracker import ModelDifferenceTracker

SHAPES = OrderedDict([("w", (20,)), ("b", (5,))])


def sparse_update(rng, scale=1.0):
    upd = OrderedDict()
    for n, s in SHAPES.items():
        arr = rng.normal(size=s) * scale
        arr[np.abs(arr) < 0.5] = 0.0
        upd[n] = encode_sparse(arr)
    return upd


class TestEq1to5:
    def test_M_accumulates_negative_updates(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 1)
        upd = sparse_update(rng)
        tr.apply_update(upd)
        np.testing.assert_allclose(tr.M["w"], -upd["w"].to_dense())

    def test_timestamp_increments(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 2)
        assert tr.apply_update(sparse_update(rng)) == 1
        assert tr.apply_update(sparse_update(rng)) == 2

    def test_dense_update_accepted(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 1)
        upd = OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items())
        tr.apply_update(upd)
        np.testing.assert_allclose(tr.M["w"], -upd["w"])

    def test_v_equals_M_after_exchange(self, rng):
        """Eq. (3): without secondary compression v_k == M after download."""
        tr = ModelDifferenceTracker(SHAPES, 2)
        for _ in range(5):
            tr.apply_update(sparse_update(rng))
            tr.model_difference(0)
            for n in SHAPES:
                np.testing.assert_array_equal(tr.vk(0)[n], tr.M[n])

    def test_worker_reconstructs_global_model(self, rng):
        """Eq. (5): θ0 + Σ G_k == θ0 + M — DGS ≡ ASGD without secondary."""
        tr = ModelDifferenceTracker(SHAPES, 2)
        theta = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())  # worker 0's model - θ0
        for step in range(10):
            tr.apply_update(sparse_update(rng))
            if step % 3 == 0:  # worker 0 syncs only sometimes (staleness)
                G = tr.model_difference(0)
                for n in SHAPES:
                    G[n].add_into(theta[n])
        tr.apply_update(sparse_update(rng))
        G = tr.model_difference(0)
        for n in SHAPES:
            G[n].add_into(theta[n])
            # atol covers float32 wire rounding of the downloaded diffs.
            np.testing.assert_allclose(theta[n], tr.M[n], atol=1e-5)

    def test_staleness_counts_interleaved_updates(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 2)
        tr.apply_update(sparse_update(rng))
        tr.apply_update(sparse_update(rng))
        tr.model_difference(0)
        assert tr.staleness(0) == 0
        tr.apply_update(sparse_update(rng))
        assert tr.staleness(0) == 1
        assert tr.staleness(1) == 3


class TestSecondaryCompression:
    def test_difference_is_sparsified(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 1, secondary=TopKSparsifier(0.1, min_sparse_size=0))
        for _ in range(5):
            tr.apply_update(sparse_update(rng))
        G = tr.model_difference(0)
        assert G["w"].nnz == 2  # 10% of 20

    def test_v_advances_only_by_sent(self, rng):
        """Eq. (6b): the unsent remainder stays pending in M − v."""
        tr = ModelDifferenceTracker(SHAPES, 1, secondary=TopKSparsifier(0.1, min_sparse_size=0))
        tr.apply_update(sparse_update(rng))
        G = tr.model_difference(0)
        pending = tr.M["w"] - tr.vk(0)["w"]
        sent_dense = G["w"].to_dense()
        np.testing.assert_allclose(sent_dense + pending, tr.M["w"], atol=1e-12)
        assert np.abs(pending).sum() > 0  # something was withheld

    def test_remainder_eventually_delivered(self, rng):
        """Repeated syncs with no new updates drain the pending difference."""
        tr = ModelDifferenceTracker(SHAPES, 1, secondary=TopKSparsifier(0.1, min_sparse_size=0))
        tr.apply_update(sparse_update(rng, scale=3.0))
        received = OrderedDict((n, np.zeros(s)) for n, s in SHAPES.items())
        for _ in range(30):
            G = tr.model_difference(0)
            for n in SHAPES:
                G[n].add_into(received[n])
        for n in SHAPES:
            np.testing.assert_allclose(received[n], tr.M[n], atol=1e-9)


class TestBookkeeping:
    def test_global_model(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 1)
        theta0 = OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items())
        upd = sparse_update(rng)
        tr.apply_update(upd)
        model = tr.global_model(theta0)
        np.testing.assert_allclose(model["w"], theta0["w"] - upd["w"].to_dense())

    def test_server_state_bytes(self):
        # secondary compression keeps every v_k: the §5.6.2 M + K·v_k
        tr = ModelDifferenceTracker(SHAPES, 3, secondary=TopKSparsifier(0.5))
        per_model = (20 + 5) * np.dtype(np.float32).itemsize
        assert tr.server_state_bytes() == per_model * (1 + 3)

    def test_no_difference_tracking_mode(self):
        tr = ModelDifferenceTracker(SHAPES, 3, track_differences=False)
        assert tr.server_state_bytes() == (20 + 5) * np.dtype(np.float32).itemsize  # M only
        with pytest.raises(RuntimeError):
            tr.model_difference(0)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ModelDifferenceTracker(SHAPES, 0)


class TestCopyCounts:
    """θ0 + M for a reply, as counts: one fresh arena, written by one pass."""

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float32)])
    def test_global_model_allocates_the_model_once_and_sums_bitwise(self, rng, dtypes):
        import tracemalloc

        from repro.core.arena import LayerArena

        theta_dtype, state_dtype = dtypes
        shapes = OrderedDict([("w", (1024, 768)), ("b", (1024,)), ("v", (10,))])
        theta0 = LayerArena(shapes, dtype=theta_dtype)
        theta0.flat[:] = rng.normal(size=theta0.size)
        tr = ModelDifferenceTracker(shapes, 1, track_differences=False, dtype=state_dtype)
        tr.M.flat[:] = rng.normal(size=tr.M.size)
        tracemalloc.start()
        try:
            model = tr.global_model(theta0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * theta0.nbytes  # the fresh arena, no clone beside it
        want = theta0.clone().add_(tr.M)
        assert model.dtype == want.dtype and model.flat.tobytes() == want.flat.tobytes()
        assert not np.shares_memory(model.flat, theta0.flat)
        # fresh per call: a reply in flight keeps the model it was built from
        tr.M.flat += 1.0
        again = tr.global_model(theta0)
        assert not np.shares_memory(again.flat, model.flat)
        assert model.flat.tobytes() == want.flat.tobytes()
