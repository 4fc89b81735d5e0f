"""Top-k sparsifier: exact-k, magnitude ordering, thresholds."""

import tracemalloc

import numpy as np
import pytest

from repro.compression import (
    TopKSparsifier,
    topk_mask,
    topk_select,
    topk_threshold,
)


class TestTopKMask:
    def test_exact_count(self, rng):
        arr = rng.normal(size=1000)
        mask = topk_mask(arr, 0.01)
        assert mask.sum() == 10

    def test_ceil_rounding(self, rng):
        arr = rng.normal(size=150)
        assert topk_mask(arr, 0.01).sum() == 2  # ceil(1.5)

    def test_at_least_one(self, rng):
        arr = rng.normal(size=5)
        assert topk_mask(arr, 0.001).sum() == 1

    def test_full_ratio_keeps_all(self, rng):
        arr = rng.normal(size=50)
        assert topk_mask(arr, 1.0).all()

    def test_kept_dominate_dropped(self, rng):
        arr = rng.normal(size=500)
        mask = topk_mask(arr, 0.1)
        kept_min = np.abs(arr[mask]).min()
        dropped_max = np.abs(arr[~mask]).max()
        assert kept_min >= dropped_max

    def test_magnitude_not_sign(self):
        arr = np.array([-10.0, 1.0, 2.0, 3.0])
        mask = topk_mask(arr, 0.25)
        assert mask[0] and not mask[1:].any()

    def test_preserves_shape(self, rng):
        arr = rng.normal(size=(4, 5, 6))
        assert topk_mask(arr, 0.05).shape == (4, 5, 6)


class TestSelectOnServerTraffic:
    def test_sparse_input_never_allocates_a_full_length_index_array(self, rng):
        """The server's ``M − v_k`` is mostly exact zeros.  Selecting from it
        must not run a full-array ``argpartition`` (an 8·n-byte ``intp``
        result, and 15–30x slower on a majority-tied array), nor hold an
        n-byte compare mask: the streamed scan's chunk buffers plus O(k)
        arrays stay under n bytes.  A byte count repeats exactly where a
        timing would not.
        """
        n = 786_432  # the benchmark MLP's 768 x 1024 layer
        x = np.zeros(n, dtype=np.float32)
        live = rng.choice(n, size=n // 50, replace=False)  # 2 % nonzero
        x[live] = rng.normal(size=live.size)
        tracemalloc.start()
        try:
            st = topk_select(x, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert st.nnz == 7865
        assert peak < n, f"peak {peak} B >= n = {n} B"


class TestThreshold:
    def test_threshold_partitions(self, rng):
        arr = rng.normal(size=400)
        thr = topk_threshold(arr, 0.05)
        assert (np.abs(arr) > thr).sum() <= 20
        assert thr > 0

    def test_full_ratio_threshold(self, rng):
        assert topk_threshold(rng.normal(size=10), 1.0) == -np.inf


class TestSparsifier:
    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKSparsifier(0.0)
        with pytest.raises(ValueError):
            TopKSparsifier(1.5)

    def test_split_partitions(self, rng):
        sp = TopKSparsifier(0.1, min_sparse_size=0)
        arr = rng.normal(size=300)
        mask, sent, kept = sp.split(arr)
        np.testing.assert_allclose(sent + kept, arr)
        assert (sent[~mask] == 0).all() and (kept[mask] == 0).all()

    def test_min_sparse_size_sends_small_layers_dense(self, rng):
        sp = TopKSparsifier(0.01, min_sparse_size=64)
        small = rng.normal(size=10)
        assert sp.mask(small).all()
        big = rng.normal(size=1000)
        assert sp.mask(big).sum() == 10

    def test_repr(self):
        assert "0.05" in repr(TopKSparsifier(0.05))
