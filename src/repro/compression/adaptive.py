"""Adaptive (sampled) threshold selection.

The paper fixes Top-1% but notes "some more advanced threshold selection
methods can be used" (§4.1).  An exact per-layer top-k costs a selection
pass over the full layer every iteration; production systems
(DGC's reference implementation among them) estimate the threshold from a
*random subsample* instead.  :class:`AdaptiveThresholdSparsifier` does
that, and additionally smooths the estimate across iterations with an
exponential moving average — gradient-magnitude distributions drift slowly,
so the smoothed sampled threshold tracks the exact one at a fraction of
the cost.

Trade-off vs exact top-k: the per-iteration selected count fluctuates
around the target (sampling noise) instead of matching exactly.
"""

from __future__ import annotations

import numpy as np

from .base import Sparsifier
from .topk import topk_threshold

__all__ = ["AdaptiveThresholdSparsifier"]


class AdaptiveThresholdSparsifier(Sparsifier):
    """Sampled-threshold selector targeting ``ratio`` density per layer.

    Each call draws ``sample_size`` random entries of the layer, computes
    the exact top-``ratio`` threshold *of the sample*, and blends it into a
    tracked per-layer threshold: ``thr ← (1 − gain)·thr + gain·thr_sample``.
    The mask is then a single vectorised comparison over the full layer.
    """

    def __init__(
        self,
        ratio: float,
        gain: float = 0.3,
        sample_size: int = 256,
        min_sparse_size: int = 256,
        seed: int = 0,
    ) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        if sample_size < 16:
            raise ValueError("sample_size must be >= 16")
        self.ratio = ratio
        self.gain = gain
        self.sample_size = sample_size
        self.min_sparse_size = min_sparse_size
        self._rng = np.random.default_rng(seed)
        self._thresholds: dict[tuple[int, ...], float] = {}

    def _sample_threshold(self, flat: np.ndarray) -> float:
        n = flat.size
        if n <= self.sample_size:
            return topk_threshold(flat, self.ratio)
        idx = self._rng.integers(0, n, size=self.sample_size)
        return topk_threshold(flat[idx], self.ratio)

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if arr.size < self.min_sparse_size or self.ratio >= 1.0:
            return np.ones(arr.shape, dtype=bool)
        flat = arr.reshape(-1)
        estimate = self._sample_threshold(flat)
        prev = self._thresholds.get(arr.shape)
        thr = estimate if prev is None else (1 - self.gain) * prev + self.gain * estimate
        self._thresholds[arr.shape] = thr

        mask = np.abs(arr) > thr
        if not mask.any():
            # Sampling overshoot on a heavy-tailed layer: keep at least the
            # single largest entry so progress is never stalled.
            mask = np.zeros(arr.shape, dtype=bool)
            mask.reshape(-1)[int(np.abs(flat).argmax())] = True
        return mask

    def __repr__(self) -> str:
        return (
            f"AdaptiveThresholdSparsifier(ratio={self.ratio}, gain={self.gain}, "
            f"sample_size={self.sample_size})"
        )
