"""Top-k magnitude sparsification — the paper's primary selection rule.

"worker k calculates the threshold for sparsification, which we chose here
as Top 1%" (§4.1): per layer, keep the R% entries of largest absolute
value.  Every kernel selects through ``_topk_indices``, which is exact and
equally fast on dense gradients and on the server's ``M − v_k`` (75–99 %
exact zeros, where a full-array ``argpartition`` degenerates on the ties).

Selection contract (``tests/properties/test_prop_compression.py``):
exactly k = ⌈ratio·n⌉ entries whose magnitudes are ``np.sort(|x|)[-k:]`` as
a multiset (NaN sorts largest); where the k-th magnitude is unique the
selected *set* is determined, and ties at it resolve identically in
``topk_mask`` and ``topk_select`` (not necessarily as NumPy's introselect
would); a layer with fewer than k nonzeros is padded with its lowest-index
zeros; ``topk_select`` indices are strictly increasing, so
``flatnonzero(topk_mask(x, r)) == topk_select(x, r).indices``.

Every kernel streams: ``|x|``, the compare against the sample's bound and
``flatnonzero`` run per chunk (:func:`~repro.compression.coding.indices_above`),
so no call allocates an array of the layer's size except ``topk_mask``'s
own result.  :func:`topk_select` produces the wire ``SparseTensor``
directly from the selected indices — no full-layer boolean mask.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Sparsifier
from .coding import SparseTensor, encode_indices, indices_above

__all__ = ["TopKSparsifier", "topk_mask", "topk_select", "topk_threshold"]


def _k_for_ratio(n: int, ratio: float) -> int:
    """Number of entries kept for a send ratio in (0, 1]; at least 1."""
    return max(1, min(n, math.ceil(n * ratio)))


_SAMPLE_STRIDE = 64  # every 64th magnitude forms the sample that bounds the k-th
_OVERSHOOT_STEP = 2  # an over-shooting sample's rank grows by this factor per rescan


def _topk_indices(flat: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``k`` indices, unordered, of the largest magnitudes of the
    1-D ``flat`` (``0 < k < flat.size``), per the module docstring's contract.

    ``lo``, the top ~2k/n quantile of a strided sample, almost surely lies
    below the k-th magnitude, so ``argpartition`` sees only the ~2k entries
    above it.  A sample that over-shoots (fewer than k entries above ``lo``)
    has its rank ``ks`` doubled and the layer scanned again, one compare
    pass per doubling; ``lo`` falls back to 0 only once the rank runs off
    the sample, so the candidates stay O(k) rather than every nonzero.
    """
    sample = np.abs(flat[::_SAMPLE_STRIDE])
    ks = math.ceil(2 * k * sample.size / flat.size)
    while True:
        lo = np.partition(sample, sample.size - ks)[sample.size - ks] if ks < sample.size else 0
        if lo != lo:  # a NaN bound admits every index; only NaN lies above inf
            lo = np.inf
        cand = indices_above(flat, lo)
        if cand.size >= k or lo == 0:
            break
        ks *= _OVERSHOOT_STEP
    if cand.size < k:
        # Pad with the lowest-index zeros; they all sit in the first k entries.
        cand = np.concatenate([cand, np.flatnonzero(flat[:k] == 0)[: k - cand.size]])
    mag = np.abs(flat[cand])
    return cand[np.argpartition(mag, cand.size - k)[cand.size - k :]]


def topk_mask(arr: np.ndarray, ratio: float) -> np.ndarray:
    """Boolean mask of the ⌈ratio·n⌉ largest-|value| entries of ``arr``."""
    flat = arr.reshape(-1)
    n = flat.size
    k = _k_for_ratio(n, ratio)
    if k >= n:
        return np.ones(arr.shape, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    mask[_topk_indices(flat, k)] = True
    return mask.reshape(arr.shape)


def topk_select(arr: np.ndarray, ratio: float) -> SparseTensor:
    """Fused select-and-extract: the top-⌈ratio·n⌉ entries as a ``SparseTensor``.

    Equivalent to ``encode_mask(arr, topk_mask(arr, ratio))`` — same
    selected set (one ``_topk_indices`` call on the same layer), same
    ascending index order, same float32 wire values — without the
    full-layer mask.  The returned tensor owns freshly allocated
    indices/values.
    """
    flat = arr.reshape(-1)
    n = flat.size
    k = _k_for_ratio(n, ratio)
    if k >= n:
        return encode_indices(arr, np.arange(n, dtype=np.intp), assume_sorted=True)
    sel = _topk_indices(flat, k)
    sel.sort()  # flatnonzero yields ascending indices; match it exactly
    return encode_indices(arr, sel, assume_sorted=True)


def topk_threshold(arr: np.ndarray, ratio: float) -> float:
    """The magnitude threshold ``thr`` such that |arr| > thr keeps ≈ top R%.

    This is the ``thr ← R% of |u[j]|`` of Algorithms 1–3.  Exposed for tests
    and for threshold-based variants; :func:`topk_mask` is what the
    production path uses (exact k, robust to ties).
    """
    flat = arr.reshape(-1)
    k = _k_for_ratio(flat.size, ratio)
    if k >= flat.size:
        return -np.inf
    # The k-th largest with NaN sorting largest: fmin skips NaN unless all are.
    return float(np.fmin.reduce(np.abs(flat[_topk_indices(flat, k)])))


class TopKSparsifier(Sparsifier):
    """Keep the top ``ratio`` fraction of entries by magnitude, per layer.

    ``ratio = R / 100`` in the paper's notation; the paper's headline setting
    is R = 1 (99% sparsity).

    ``min_sparse_size``: layers smaller than this are sent dense.  Production
    top-k systems (DGC's reference implementation among them) exempt tiny
    tensors — BatchNorm scales/biases — because a per-layer top-k over a
    handful of elements starves most of them and destabilises training while
    saving almost no bandwidth.
    """

    def __init__(self, ratio: float, min_sparse_size: int = 256) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if min_sparse_size < 0:
            raise ValueError("min_sparse_size must be non-negative")
        self.ratio = ratio
        self.min_sparse_size = min_sparse_size

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if arr.size < self.min_sparse_size:
            return np.ones(arr.shape, dtype=bool)
        return topk_mask(arr, self.ratio)

    def select(self, arr: np.ndarray) -> SparseTensor:
        """Fused mask+encode (see :meth:`Sparsifier.select`): tiny layers
        come back fully selected, exactly like the all-ones mask path."""
        ratio = 1.0 if arr.size < self.min_sparse_size else self.ratio
        return topk_select(arr, ratio)

    def __repr__(self) -> str:
        return f"TopKSparsifier(ratio={self.ratio}, min_sparse_size={self.min_sparse_size})"
