"""Reverse-mode autodiff substrate (NumPy-backed)."""

from .gradcheck import gradcheck, numerical_gradient
from .ops import conv2d, global_avg_pool2d, im2col, col2im, linear, max_pool2d
from .tensor import DEFAULT_DTYPE, Tensor, no_grad, is_grad_enabled

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "DEFAULT_DTYPE",
    "gradcheck",
    "numerical_gradient",
    "linear",
    "conv2d",
    "max_pool2d",
    "global_avg_pool2d",
    "im2col",
    "col2im",
]
