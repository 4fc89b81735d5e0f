"""Structured-array autograd ops: the affine map, and convolution and
pooling via im2col.

These carry hand-written backward passes (rather than being composed from
primitives) because im2col/col2im is the vectorised formulation — a direct
loop over output pixels would be orders of magnitude slower in Python —
and because the composed ``x @ w.T`` hands the weight its gradient as a
transposed (F-ordered) view (see :func:`linear`).

The ops with a weight (:func:`linear`, :func:`conv2d`) compute in the
weight's dtype: an input of another width is cast once on the way in, so a
float64 batch fed to a float32 layer costs one cast and an ``sgemm``, never a
silent ``dgemm``.  Pooling has no weight and keeps its input's dtype.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "linear",
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "global_avg_pool2d",
]


def linear(x: Tensor, weight: Tensor, bias: "Tensor | None" = None) -> Tensor:
    """Affine map over the last axis: x (..., in) · weight (out, in)ᵀ + bias.

    The backward computes the weight gradient as ``gᵀ @ x`` — BLAS writes
    the (out, in) result C-ordered, in the layout of ``weight.data`` — and
    hands that fresh array over without a copy.  Composed from primitives
    (``x @ weight.T``) the same gradient arrives as the transpose of
    ``xᵀ @ g``: F-ordered, so every consumer downstream (the worker
    strategies walk it against their C-ordered state) strides by a row.
    """
    w = weight.data
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"feature mismatch: input has {x.shape[-1]}, weight expects {n_in}")
    # leading axes flattened: one path for every rank
    x2 = x.data.reshape(-1, n_in).astype(w.dtype, copy=False)
    out = x2 @ w.T
    if bias is not None:
        out += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    result = Tensor(out.reshape(x.shape[:-1] + (n_out,)))
    if is_grad_enabled() and any(p.requires_grad for p in parents):

        def backward(g: np.ndarray) -> None:
            g2 = g.reshape(-1, n_out)
            if weight.requires_grad:
                weight._accumulate(g2.T @ x2, owned=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0), owned=True)
            if x.requires_grad:
                x._accumulate((g2 @ w).reshape(x.shape))

        result.requires_grad = True
        result._parents = parents
        result._backward = backward
    return result


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*kh*kw)."""
    n, c, h, w = x.shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Strided view: (N, C, kh, kw, OH, OW) without copying.
    sN, sC, sH, sW = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sN, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold columns back to an image, summing overlapping contributions."""
    n, c, h, w = x_shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation: x (N,C,H,W) * weight (F,C,kh,kw) -> (N,F,OH,OW)."""
    n, c, h, w = x.shape
    f, c2, kh, kw = weight.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c2}")
    cols, oh, ow = im2col(x.data.astype(weight.dtype, copy=False), kh, kw, stride, pad)
    wmat = weight.data.reshape(f, -1)  # (F, C*kh*kw)
    out = cols @ wmat.T  # (N*OH*OW, F)
    if bias is not None:
        out += bias.data
    out_data = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    result = Tensor(out_data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):

        def backward(g: np.ndarray) -> None:
            gmat = g.transpose(0, 2, 3, 1).reshape(-1, f)  # (N*OH*OW, F)
            if weight.requires_grad:
                # The GEMM lands in a weight-shaped array of its own, which
                # is handed over; (F, C*kh*kw) reshaped would be a view.
                gw = np.empty(weight.shape, dtype=np.result_type(gmat, cols))
                np.matmul(gmat.T, cols, out=gw.reshape(f, -1))
                weight._accumulate(gw, owned=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(gmat.sum(axis=0), owned=True)
            if x.requires_grad:
                gcols = gmat @ wmat  # (N*OH*OW, C*kh*kw)
                x._accumulate(col2im(gcols, (n, c, h, w), kh, kw, stride, pad))

        result.requires_grad = True
        result._parents = parents
        result._backward = backward
    return result


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over (kernel × kernel) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(x.data, kernel, kernel, stride, 0)
    cols = cols.reshape(n * oh * ow, c, kernel * kernel)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]
    out_data = out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)

    result = Tensor(out_data)
    if is_grad_enabled() and x.requires_grad:

        def backward(g: np.ndarray) -> None:
            gflat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c)
            gcols = np.zeros((n * oh * ow, c, kernel * kernel), dtype=g.dtype)
            np.put_along_axis(gcols, argmax[:, :, None], gflat[:, :, None], axis=2)
            gcols = gcols.reshape(n * oh * ow, c * kernel * kernel)
            x._accumulate(col2im(gcols, (n, c, h, w), kernel, kernel, stride, 0))

        result.requires_grad = True
        result._parents = (x,)
        result._backward = backward
    return result


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N,C,H,W) -> (N,C)."""
    return x.mean(axis=(2, 3))
