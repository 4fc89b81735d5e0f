"""Kernel workspace: each streamed kernel takes its chunk buffers per call.

The selection and encode kernels run ``|x|``, the compare and
``flatnonzero`` one :data:`~repro.compression.coding.CHUNK` at a time
through buffers they allocate per call.  Chunking must never change a
kernel's result — it equals the whole-array reference at every chunk
boundary — and no output aliases a chunk buffer.
"""

import numpy as np

from repro.compression import (
    encode_best,
    encode_indices,
    encode_mask,
    encode_sparse,
    topk_mask,
    topk_select,
    topk_threshold,
)
from repro.compression.coding import CHUNK, indices_above

#: sizes around the chunk boundaries, and a few below one chunk
SIZES = (1, 7, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5)


def _reference_top(arr, ratio):
    """Whole-array top-k set (continuous draws: the k-th magnitude is unique)."""
    mag = np.abs(arr.reshape(-1))
    k = max(1, min(mag.size, int(np.ceil(mag.size * ratio))))
    return np.sort(np.argsort(mag, kind="stable")[mag.size - k :]), mag


class TestKernelInvariance:
    """Chunking must never change a kernel's result, only its allocations."""

    def test_topk_mask(self, rng):
        for n in SIZES:
            arr = rng.normal(size=n)
            for ratio in (0.01, 0.1, 0.5, 1.0):
                want, _ = _reference_top(arr, ratio)
                np.testing.assert_array_equal(np.flatnonzero(topk_mask(arr, ratio)), want)

    def test_topk_threshold(self, rng):
        for n in SIZES:
            arr = rng.normal(size=n)
            for ratio in (0.01, 0.1, 0.5):
                want, mag = _reference_top(arr, ratio)
                if want.size < n:
                    assert topk_threshold(arr, ratio) == mag[want].min()

    def test_topk_select_equals_mask_then_encode(self, rng):
        for n in SIZES:
            arr = rng.normal(size=n)
            for ratio in (0.05, 0.3, 1.0):
                fused = topk_select(arr, ratio)
                ref = encode_mask(arr, topk_mask(arr, ratio))
                np.testing.assert_array_equal(fused.indices, ref.indices)
                np.testing.assert_array_equal(fused.values, ref.values)

    def test_encode_kernels(self, rng):
        for n in SIZES:
            arr = rng.normal(size=n)
            arr[np.abs(arr) < 1.0] = 0.0
            arr[::97] = np.nan  # NaN is nonzero to every scan
            want = np.flatnonzero(arr != 0)
            np.testing.assert_array_equal(indices_above(arr, 0), want)
            b = encode_sparse(arr)
            np.testing.assert_array_equal(b.indices, want)
            np.testing.assert_array_equal(encode_best(arr).to_dense(np.float32), b.to_dense(np.float32))
            c = encode_indices(arr, want, assume_sorted=True)
            np.testing.assert_array_equal(c.values, b.values)

    def test_outputs_do_not_alias_workspace(self, rng):
        """SparseTensor values/indices must survive the next kernel call."""
        arr = rng.normal(size=200)
        st = topk_select(arr, 0.1)
        vals, idx = st.values.copy(), st.indices.copy()
        topk_select(rng.normal(size=200), 0.5)
        np.testing.assert_array_equal(st.values, vals)
        np.testing.assert_array_equal(st.indices, idx)
        assert not np.shares_memory(indices_above(arr, 0), indices_above(arr, 0))

    def test_varying_sizes_through_one_workspace(self, rng):
        """Per-layer usage: calls of different sizes, back to back."""
        for n in (1000, 10, CHUNK + 3, 500, 3, 999):
            arr = rng.normal(size=n)
            fused = topk_select(arr, 0.3)
            ref = encode_mask(arr, topk_mask(arr, 0.3))
            np.testing.assert_array_equal(fused.indices, ref.indices)
            np.testing.assert_array_equal(fused.values, ref.values)
