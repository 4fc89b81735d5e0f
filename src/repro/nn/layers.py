"""Dense and activation layers."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, linear
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "ReLU", "Identity"]


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


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
