"""Dense, activation, and structural layers."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, linear
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "ReLU", "Tanh", "Sigmoid", "Flatten", "Dropout", "Identity"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Collapse all axes but the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        # bool × a scalar of x's dtype: the mask is born at the activations'
        # width (bool / float would make it float64 and widen the graph)
        keep = self.rng.random(x.shape) >= self.p
        return x * Tensor(keep * x.dtype.type(1.0 / (1.0 - self.p)))
