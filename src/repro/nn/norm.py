"""Batch normalisation of (N, C, H, W) activations with running statistics."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..autograd import Tensor, no_grad
from . import init
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "reestimate_batchnorm"]


class BatchNorm2d(Module):
    """Normalise (N, C, H, W) activations over batch and spatial axes."""

    _axes = (0, 2, 3)

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def _reshape_stats(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return arr.reshape(shape)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got shape {x.shape}")
        axes = self._axes
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
            # Update running stats (outside the tape), in the buffers' dtype
            # whatever width the batch statistics arrived at.
            m = self.momentum
            n = int(np.prod([x.shape[a] for a in axes]))
            unbias = n / max(n - 1, 1)
            for name, batch_stat in (("running_mean", mean.data), ("running_var", unbias * var.data)):
                running = self._buffers[name]
                new = (1 - m) * running + m * batch_stat.reshape(-1)
                self.set_buffer(name, new.astype(running.dtype, copy=False))
            xhat = (x - mean) / (var + self.eps) ** 0.5
        else:
            mean = Tensor(self._reshape_stats(self._buffers["running_mean"], x.ndim))
            var = Tensor(self._reshape_stats(self._buffers["running_var"], x.ndim))
            xhat = (x - mean) / (var + self.eps) ** 0.5
        stat_shape = [1] * x.ndim
        stat_shape[1] = self.num_features
        w = self.weight.reshape(*stat_shape)
        b = self.bias.reshape(*stat_shape)
        return xhat * w + b


def reestimate_batchnorm(model: Module, batches: "Iterable[np.ndarray]") -> None:
    """Set every :class:`BatchNorm2d` running statistic in ``model`` to its
    plain average over ``batches``, each forwarded in training mode.

    For a model whose parameters were assigned from elsewhere (the server's
    θ0 + M), so that its running statistics never saw a batch.  Batch ``i``
    enters with momentum ``1 / (i + 1)``: the first replaces the old
    statistics and each later one averages in.  A model without BatchNorm
    is left as it is and draws no batch.
    """
    norms = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    if not norms:
        return
    momenta = [m.momentum for m in norms]
    was_training = model.training
    model.train()
    try:
        with no_grad():
            for i, x in enumerate(batches):
                for m in norms:
                    m.momentum = 1.0 / (i + 1)
                model(Tensor(x))
    finally:
        for m, momentum in zip(norms, momenta):
            m.momentum = momentum
        model.train(was_training)
