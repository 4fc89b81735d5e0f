"""Convolution and pooling layers."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, conv2d, global_avg_pool2d, max_pool2d
from . import init
from .module import Module, Parameter

__all__ = ["Conv2d", "MaxPool2d", "GlobalAvgPool2d"]


class Conv2d(Module):
    """2-D convolution (cross-correlation), im2col-based."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """(N, C, H, W) -> (N, C): the ResNet head pooling."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)
