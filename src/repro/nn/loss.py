"""Loss functions."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, is_grad_enabled

__all__ = ["cross_entropy", "accuracy"]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy with integer class targets.

    Implemented with a fused analytic backward (softmax − one-hot) / N, which
    is both faster and numerically stabler than composing primitives.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be a 1-D class-index array, got shape {targets.shape}")
    n, c = logits.shape
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + zmax
    logp = z - logsumexp
    loss_val = -logp[np.arange(n), targets].mean()

    out = Tensor(np.asarray(loss_val))
    if is_grad_enabled() and logits.requires_grad:

        def backward(g: np.ndarray) -> None:
            probs = np.exp(logp)
            probs[np.arange(n), targets] -= 1.0
            probs *= g  # g * probs / n in place: stays the logits' dtype
            probs /= n
            logits._accumulate(probs, owned=True)

        out.requires_grad = True
        out._parents = (logits,)
        out._backward = backward
    return out


def accuracy(logits: "Tensor | np.ndarray", targets: np.ndarray) -> float:
    """Top-1 accuracy of logits (N, C) against class indices (N,)."""
    z = logits.data if isinstance(logits, Tensor) else logits
    return float((z.argmax(axis=1) == np.asarray(targets)).mean())
