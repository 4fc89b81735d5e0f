"""Future-work extensions (§6 of the paper).

The paper's conclusion proposes combining DGS with other compression
approaches — TernGrad [Wen et al.] and random coordinate dropping
[Wangni et al.] are named explicitly.  This module implements:

* :class:`TernGradStrategy` — pure ternary-quantised upload (a quantisation
  baseline for the combination ablation);
* :class:`QSGDStrategy` — unbiased s-level quantised upload (paper ref. [3]);
* :class:`RandomDroppingStrategy` — unbiased random-k upload;
* :class:`DGSTernGradStrategy` — the proposed combination: SAMomentum
  selects the top-R% coordinates (Algorithm 3), and the *values* sent are
  ternary-quantised with error feedback into ``u``, cutting per-element
  value cost from 32 bits to 2.

The method catalogue, :data:`repro.core.methods.METHODS`, lists them as
``terngrad``, ``qsgd``, ``random_dropping`` and ``dgs_terngrad``, so they
run through every trainer and bench unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.coding import QuantizedSparseTensor, encode_mask
from ..compression.qsgd import QSGDQuantizer
from ..compression.randomk import RandomKSparsifier
from ..compression.terngrad import TernaryTensor, TernGradQuantizer
from .strategies import SAMomentumStrategy, WorkerStrategy

__all__ = [
    "TernGradStrategy",
    "RandomDroppingStrategy",
    "DGSTernGradStrategy",
    "QSGDStrategy",
]


class TernGradStrategy(WorkerStrategy):
    """Pure TernGrad upload: each layer of η∇ is ternarised (unbiased)."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], seed: int = 0) -> None:
        super().__init__(shapes)
        self.quantizer = TernGradQuantizer(seed=seed)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, TernaryTensor]":
        return OrderedDict((name, self.quantizer.quantize(lr * g)) for name, g in grads.items())


class QSGDStrategy(WorkerStrategy):
    """QSGD upload (paper ref. [3]): unbiased s-level quantisation of η∇."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], s: int = 4, seed: int = 0) -> None:
        super().__init__(shapes)
        self.quantizer = QSGDQuantizer(s=s, seed=seed)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float):
        return OrderedDict((name, self.quantizer.quantize(lr * g)) for name, g in grads.items())


class RandomDroppingStrategy(WorkerStrategy):
    """Random coordinate dropping (Wangni et al.): unbiased, residual-free."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], ratio: float, seed: int = 0) -> None:
        super().__init__(shapes)
        self.sparsifier = RandomKSparsifier(ratio, seed=seed, rescale=True)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float):
        out = OrderedDict()
        for name, g in grads.items():
            mask, sent, _ = self.sparsifier.split(lr * g)
            out[name] = encode_mask(sent, mask)
        return out


class DGSTernGradStrategy(SAMomentumStrategy):
    """DGS + TernGrad: SAMomentum selection, ternary values, error feedback.

    Per layer: run Algorithm 3's selection on ``u``; quantise the selected
    values to {−1,0,+1}·scale (scale = mean |selected value|, the unbiased
    magnitude for a one-level quantiser over a selected set); the
    quantisation error stays in ``u`` so nothing is lost, mirroring how
    Algorithm 3 keeps unsent mass in ``u``.  ``u`` is in the parent's
    stored form (``m·u_paper``).
    """

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float):
        m = self.momentum
        out: OrderedDict[str, QuantizedSparseTensor] = OrderedDict()
        for name, g in grads.items():
            u = self.u[name]
            u += lr * g
            mask = self.sparsifier.mask(u)
            flat_idx = np.flatnonzero(mask.reshape(-1))
            values = u.reshape(-1)[flat_idx]
            scale = float(np.abs(values).mean()) if len(values) else 0.0
            if scale > 0:
                # Deterministic sign quantisation at the mean magnitude;
                # the residual (value − sign·scale) feeds back into u.
                signs = np.sign(values).astype(np.int8)
                quantized = signs * scale
            else:
                signs = np.zeros(len(values), dtype=np.int8)
                quantized = np.zeros(len(values))
            out[name] = QuantizedSparseTensor(flat_idx, signs, scale, u.shape)
            # Error feedback: the sent coordinates keep their quantisation
            # error, decayed like any sent value (u holds m·u_paper).
            u.reshape(-1)[flat_idx] = m * (values - quantized)
        return out
