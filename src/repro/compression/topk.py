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

Two call styles:

* the reference kernels (``topk_mask`` / ``topk_threshold`` with
  ``workspace=None``) allocate per call — simple, and the baseline the
  parity tests compare against;
* the hot path passes a :class:`~repro.compression.workspace.KernelWorkspace`
  to reuse the ``|u|`` magnitude and mask scratch across iterations, and
  uses :func:`topk_select` to produce the wire ``SparseTensor`` directly
  from the selected indices — no full-layer boolean mask.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Sparsifier
from .coding import SparseTensor, encode_indices
from .workspace import KernelWorkspace

__all__ = ["TopKSparsifier", "topk_mask", "topk_select", "topk_threshold"]


def _k_for_ratio(n: int, ratio: float) -> int:
    """Number of entries kept for a send ratio in (0, 1]; at least 1."""
    return max(1, min(n, math.ceil(n * ratio)))


def _magnitudes(flat: np.ndarray, workspace: "KernelWorkspace | None") -> np.ndarray:
    """``|flat|``, into reusable scratch when a workspace is supplied."""
    if workspace is None:
        return np.abs(flat)
    return np.abs(flat, out=workspace.scratch("topk.abs", flat.size, flat.dtype))


_SAMPLE_STRIDE = 64  # every 64th magnitude forms the sample that bounds the k-th


def _above(mag: np.ndarray, lo) -> np.ndarray:
    """Indices where ``mag > lo`` or ``mag`` is NaN (NaN sorts largest)."""
    keep = mag <= lo
    return np.flatnonzero(np.logical_not(keep, out=keep))


def _topk_indices(mag: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``k`` indices, unordered, of the largest of the 1-D magnitudes
    ``mag`` (``0 < k < mag.size``), per the module docstring's contract.

    ``lo``, the top ~2k/n quantile of a strided sample, almost surely lies
    below the k-th magnitude, so ``argpartition`` sees only the ~2k entries
    above it; a sample that over-shoots costs one more compare pass.
    """
    sample = mag[::_SAMPLE_STRIDE]
    ks = math.ceil(2 * k * sample.size / mag.size)
    lo = np.partition(sample, sample.size - ks)[sample.size - ks] if ks < sample.size else 0
    if lo != lo:  # a NaN bound admits every index; only NaN lies above inf
        lo = np.inf
    cand = _above(mag, lo)
    if cand.size < k and lo != 0:
        cand = _above(mag, 0)
    if cand.size < k:
        # Pad with the lowest-index zeros; they all sit in the first k entries.
        cand = np.concatenate([cand, np.flatnonzero(mag[:k] == 0)[: k - cand.size]])
    return cand[np.argpartition(mag[cand], cand.size - k)[cand.size - k :]]


def topk_mask(
    arr: np.ndarray, ratio: float, workspace: "KernelWorkspace | None" = None
) -> np.ndarray:
    """Boolean mask of the ⌈ratio·n⌉ largest-|value| entries of ``arr``.

    With a workspace, the returned mask aliases workspace memory: it is
    valid until the next kernel call on that workspace (consume it before
    selecting the next layer).
    """
    flat = arr.reshape(-1)
    n = flat.size
    k = _k_for_ratio(n, ratio)
    if k >= n:
        return np.ones(arr.shape, dtype=bool)
    mag = _magnitudes(flat, workspace)
    if workspace is None:
        mask = np.zeros(n, dtype=bool)
    else:
        mask = workspace.scratch("topk.mask", n, bool)
        mask[:] = False
    mask[_topk_indices(mag, k)] = True
    return mask.reshape(arr.shape)


def topk_select(
    arr: np.ndarray, ratio: float, workspace: "KernelWorkspace | None" = None
) -> SparseTensor:
    """Fused select-and-extract: the top-⌈ratio·n⌉ entries as a ``SparseTensor``.

    Equivalent to ``encode_mask(arr, topk_mask(arr, ratio))`` — same
    selected set (one ``_topk_indices`` call on the same magnitudes), same
    ascending index order, same float32 wire values — without the
    full-layer mask.  The returned tensor owns freshly allocated
    indices/values (never workspace aliases), so it may outlive the workspace.
    """
    flat = arr.reshape(-1)
    n = flat.size
    k = _k_for_ratio(n, ratio)
    if k >= n:
        return encode_indices(
            arr, np.arange(n, dtype=np.intp), workspace=workspace, assume_sorted=True
        )
    sel = _topk_indices(_magnitudes(flat, workspace), k)
    sel.sort()  # flatnonzero yields ascending indices; match it exactly
    return encode_indices(arr, sel, workspace=workspace, assume_sorted=True)


def topk_threshold(
    arr: np.ndarray, ratio: float, workspace: "KernelWorkspace | None" = None
) -> float:
    """The magnitude threshold ``thr`` such that |arr| > thr keeps ≈ top R%.

    This is the ``thr ← R% of |u[j]|`` of Algorithms 1–3.  Exposed for tests
    and for threshold-based variants; :func:`topk_mask` is what the
    production path uses (exact k, robust to ties).
    """
    flat = arr.reshape(-1)
    k = _k_for_ratio(flat.size, ratio)
    if k >= flat.size:
        return -np.inf
    mag = _magnitudes(flat, workspace)
    # The k-th largest with NaN sorting largest: fmin skips NaN unless all are.
    return float(np.fmin.reduce(mag[_topk_indices(mag, k)]))


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

    def select(
        self, arr: np.ndarray, workspace: "KernelWorkspace | None" = None
    ) -> SparseTensor:
        """Fused mask+encode (see :meth:`Sparsifier.select`): tiny layers
        come back fully selected, exactly like the all-ones mask path."""
        ratio = 1.0 if arr.size < self.min_sparse_size else self.ratio
        return topk_select(arr, ratio, workspace=workspace)

    def __repr__(self) -> str:
        return f"TopKSparsifier(ratio={self.ratio}, min_sparse_size={self.min_sparse_size})"
