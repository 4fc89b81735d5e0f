"""Model evaluation on held-out data."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.layerops import bound_parameters
from ..nn.loss import accuracy, cross_entropy
from ..nn.module import Module

__all__ = ["evaluate_model", "evaluate_params"]


def evaluate_model(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 512
) -> tuple[float, float]:
    """Return (top-1 accuracy, mean loss) of ``model`` on (x, y)."""
    was_training = model.training
    model.eval()
    correct = 0
    loss_total = 0.0
    with no_grad():
        for start in range(0, len(x), batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            logits = model(Tensor(xb))
            correct += int(round(accuracy(logits, yb) * len(xb)))
            loss_total += float(cross_entropy(logits, yb).data) * len(xb)
    if was_training:
        model.train()
    return correct / len(x), loss_total / len(x)


def evaluate_params(
    model: Module,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 512,
) -> tuple[float, float]:
    """Evaluate a parameter snapshot in ``model``'s architecture.

    ``params``' arrays are bound as the model's parameters for the
    evaluation and the model's own are bound back afterwards, so the
    caller's replica is untouched and nothing is copied.
    """
    with bound_parameters(model, params):
        return evaluate_model(model, x, y, batch_size=batch_size)
