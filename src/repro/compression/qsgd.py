"""QSGD quantisation (Alistarh et al., the paper's [3]).

Randomised quantisation onto ``s`` uniform levels per layer: each value
``v`` maps to ``sign(v) · ‖g‖₂ · ξ/s`` where ``ξ ∈ {⌊s|v|/‖g‖⌋, ⌈s|v|/‖g‖⌉}``
chosen stochastically so the quantiser is unbiased.  Wire cost is
``⌈log2(2s+1)⌉`` bits per element plus one float norm per layer.

Included as the quantisation-family baseline the paper positions gradient
sparsification against ("even binary gradients can only achieve 32×
reduced size", §2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import HEADER_BYTES, VALUE_BYTES

__all__ = ["QSGDQuantizer", "QSGDTensor"]


@dataclass(frozen=True)
class QSGDTensor:
    """A QSGD-quantised layer: integer levels in [−s, s] and the L2 norm."""

    levels: np.ndarray  # int32, |level| <= s
    norm: float
    s: int
    shape: tuple[int, ...]

    def to_dense(self, dtype: "np.dtype | type | str" = np.float64) -> np.ndarray:
        dense = self.levels.astype(np.float64) * (self.norm / self.s)
        return dense.astype(dtype, copy=False).reshape(self.shape)

    def nbytes(self) -> int:
        n = int(np.prod(self.shape))
        bits = max(1, math.ceil(math.log2(2 * self.s + 1)))
        return HEADER_BYTES + VALUE_BYTES + (bits * n + 7) // 8


class QSGDQuantizer:
    """Unbiased stochastic quantiser with ``s`` levels (default 4 ⇒ 4 bits)."""

    def __init__(self, s: int = 4, seed: int = 0) -> None:
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        self.s = s
        self._rng = np.random.default_rng(seed)

    def quantize(self, arr: np.ndarray) -> QSGDTensor:
        flat = arr.reshape(-1).astype(np.float64)
        norm = float(np.linalg.norm(flat))
        if norm == 0.0:
            return QSGDTensor(np.zeros(flat.size, dtype=np.int32), 0.0, self.s, arr.shape)
        scaled = np.abs(flat) * (self.s / norm)  # in [0, s]
        floor = np.floor(scaled)
        prob_up = scaled - floor
        levels = floor + (self._rng.random(flat.size) < prob_up)
        return QSGDTensor(
            (np.sign(flat) * levels).astype(np.int32), norm, self.s, arr.shape
        )

    def dequantize(self, t: QSGDTensor) -> np.ndarray:
        return t.to_dense()
