"""TernGrad quantisation (Wen et al. 2017) — future-work combination (§6).

Quantises each layer to {−1, 0, +1}·s where ``s = max|g|``, with stochastic
rounding so the quantised gradient is an unbiased estimator.  Wire cost is
2 bits per element plus one float scale per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import HEADER_BYTES, VALUE_BYTES

__all__ = ["TernGradQuantizer", "TernaryTensor"]


@dataclass(frozen=True)
class TernaryTensor:
    """A ternary-quantised layer: signs in {-1, 0, 1} and a scalar scale."""

    signs: np.ndarray  # int8, values in {-1, 0, 1}
    scale: float
    shape: tuple[int, ...]

    def to_dense(self, dtype: "np.dtype | type | str" = np.float64) -> np.ndarray:
        return (self.signs * self.scale).astype(dtype).reshape(self.shape)

    def nbytes(self) -> int:
        """2 bits/element packed, plus the scale and header."""
        n = int(np.prod(self.shape))
        return HEADER_BYTES + VALUE_BYTES + (2 * n + 7) // 8


class TernGradQuantizer:
    """Stochastic ternary quantisation with optional gradient clipping."""

    def __init__(self, seed: int = 0, clip_sigma: float | None = 2.5) -> None:
        self._rng = np.random.default_rng(seed)
        self.clip_sigma = clip_sigma

    def quantize(self, arr: np.ndarray) -> TernaryTensor:
        g = arr.astype(np.float64, copy=True)
        if self.clip_sigma is not None and g.size > 1:
            sigma = g.std()
            if sigma > 0:
                bound = self.clip_sigma * sigma
                np.clip(g, -bound, bound, out=g)
        scale = float(np.abs(g).max())
        if scale == 0.0:
            return TernaryTensor(np.zeros(g.size, dtype=np.int8), 0.0, arr.shape)
        prob = np.abs(g.reshape(-1)) / scale  # P(nonzero), unbiased
        bernoulli = self._rng.random(g.size) < prob
        signs = (np.sign(g.reshape(-1)) * bernoulli).astype(np.int8)
        return TernaryTensor(signs, scale, arr.shape)

    def dequantize(self, t: TernaryTensor) -> np.ndarray:
        return t.to_dense()
