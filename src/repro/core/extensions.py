"""Future-work extensions (§6 of the paper).

The paper's conclusion proposes combining DGS with other compression
approaches — TernGrad [Wen et al.] and random coordinate dropping
[Wangni et al.] are named explicitly.  This module implements:

* :class:`TernGradStrategy` — pure ternary-quantised upload (a quantisation
  baseline for the combination ablation);
* :class:`RandomDroppingStrategy` — unbiased random-k upload;
* :class:`DGSTernGradStrategy` — the proposed combination: SAMomentum
  selects the top-R% coordinates (Algorithm 3), and the *values* sent are
  ternary-quantised with error feedback into ``u``, cutting per-element
  value cost from 32 bits to 2.

All three are registered in the method registry under ``terngrad``,
``random_dropping`` and ``dgs_terngrad`` via :func:`register_extensions`
(called on import), so they run through every trainer and bench unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.coding import QuantizedSparseTensor
from ..compression.randomk import RandomKSparsifier
from ..compression.terngrad import TernaryTensor, TernGradQuantizer
from ..compression.topk import TopKSparsifier
from .methods import METHODS, Hyper, MethodSpec
from .strategies import SAMomentumStrategy, WorkerStrategy

__all__ = [
    "TernGradStrategy",
    "RandomDroppingStrategy",
    "DGSTernGradStrategy",
    "QSGDStrategy",
    "build_extension_strategy",
    "register_extensions",
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
        from ..compression.qsgd import QSGDQuantizer

        self.quantizer = QSGDQuantizer(s=s, seed=seed)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float):
        return OrderedDict((name, self.quantizer.quantize(lr * g)) for name, g in grads.items())


class RandomDroppingStrategy(WorkerStrategy):
    """Random coordinate dropping (Wangni et al.): unbiased, residual-free."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], ratio: float, seed: int = 0) -> None:
        super().__init__(shapes)
        self.sparsifier = RandomKSparsifier(ratio, seed=seed, rescale=True)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float):
        from ..compression.coding import encode_mask

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


def register_extensions() -> None:
    """Add the §6 extension methods to the global registry (idempotent)."""
    extras = {
        "dgs_adaptive": MethodSpec(
            name="dgs_adaptive",
            label="DGS (adaptive thr)",
            strategy="dgs_adaptive",
            downstream="difference",
            sparsification="Dual-way, sampled adaptive threshold (§4.1 note)",
            momentum="SAMomentum",
        ),
        "terngrad": MethodSpec(
            name="terngrad",
            label="TernGrad-async",
            strategy="terngrad",
            downstream="model",
            sparsification="ternary quantisation",
            momentum="N",
        ),
        "qsgd": MethodSpec(
            name="qsgd",
            label="QSGD-async",
            strategy="qsgd",
            downstream="model",
            sparsification="s-level stochastic quantisation",
            momentum="N",
        ),
        "random_dropping": MethodSpec(
            name="random_dropping",
            label="RandDrop-async",
            strategy="random_dropping",
            downstream="difference",
            sparsification="random coordinate dropping (unbiased)",
            momentum="N",
        ),
        "dgs_terngrad": MethodSpec(
            name="dgs_terngrad",
            label="DGS+TernGrad",
            strategy="dgs_terngrad",
            downstream="difference",
            sparsification="Dual-way Top-k + ternary values",
            momentum="SAMomentum",
        ),
    }
    METHODS.update({k: v for k, v in extras.items() if k not in METHODS})


def build_extension_strategy(
    kind: str,
    shapes: Mapping[str, tuple[int, ...]],
    hyper: Hyper,
    dtype: "object | None" = None,
) -> WorkerStrategy | None:
    """Factory hook consulted by :func:`repro.core.methods.build_strategy`."""
    if kind == "terngrad":
        return TernGradStrategy(shapes)
    if kind == "qsgd":
        return QSGDStrategy(shapes)
    if kind == "random_dropping":
        return RandomDroppingStrategy(shapes, hyper.ratio)
    if kind == "dgs_terngrad":
        return DGSTernGradStrategy(
            shapes,
            TopKSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size),
            hyper.momentum,
            dtype=dtype,
        )
    if kind == "dgs_adaptive":
        from ..compression.adaptive import AdaptiveThresholdSparsifier

        return SAMomentumStrategy(
            shapes,
            AdaptiveThresholdSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size),
            hyper.momentum,
            dtype=dtype,
        )
    return None


register_extensions()
