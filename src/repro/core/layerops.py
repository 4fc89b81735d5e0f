"""Per-layer vector helpers.

All distributed state in this reproduction — gradients, momenta, residuals,
the server's M and v_k — is a mapping ``layer name -> ndarray`` aligned with
``Module.named_parameters()``.  Sparsification is applied *per layer*
(Algorithms 1–3 iterate ``for j = 0..J``), so the layer structure must be
preserved end-to-end.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Mapping

import numpy as np

from ..compression.coding import CHUNK
from ..nn.module import Module

__all__ = [
    "LayerMap",
    "layer_shapes",
    "zeros_like_layers",
    "gradients_of",
    "parameters_of",
    "parameter_views",
    "assign_parameters",
    "bound_parameters",
    "add_payload",
    "copy_payload",
    "scale_payload",
    "add_scaled",
]

LayerMap = "OrderedDict[str, np.ndarray]"


def layer_shapes(model: Module) -> "OrderedDict[str, tuple[int, ...]]":
    return OrderedDict((name, p.shape) for name, p in model.named_parameters())


def zeros_like_layers(shapes: Mapping[str, tuple[int, ...]], dtype=None) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((name, np.zeros(shape, dtype=dtype)) for name, shape in shapes.items())


def gradients_of(model: Module) -> "OrderedDict[str, np.ndarray]":
    """Collect gradients after backward(); missing grads become zeros."""
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    for name, p in model.named_parameters():
        out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out


def parameters_of(model: Module) -> "OrderedDict[str, np.ndarray]":
    """Copies of the model's parameter arrays."""
    return OrderedDict((name, p.data.copy()) for name, p in model.named_parameters())


def parameter_views(model: Module) -> "OrderedDict[str, np.ndarray]":
    """Read-only views of the model's parameter arrays.

    θ0 as the engines hand it out: every consumer (the server's θ0 arena,
    :func:`assign_parameters` on a replica) copies what it keeps, so a
    snapshot of its own would be a dead copy of the model.  The views see
    later writes to the model, so take them before training touches it.
    """
    views: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, p in model.named_parameters():
        view = p.data.view()
        view.flags.writeable = False
        views[name] = view
    return views


def assign_parameters(model: Module, values: Mapping[str, np.ndarray]) -> None:
    """Copy ``values`` into the model's parameters in place."""
    for name, p in model.named_parameters():
        np.copyto(p.data, values[name])


@contextmanager
def bound_parameters(model: Module, values: Mapping[str, np.ndarray]) -> Iterator[Module]:
    """Bind ``values``' arrays as the model's parameters for the block, then
    rebind the model's own arrays — no copy either way.

    A layer whose dtype differs from the parameter's is cast, as
    :func:`assign_parameters` would cast it, so the block computes what it
    would on a copy.  Nothing may write the bound parameters: they are
    ``values``' memory.
    """
    params = [(p, values[name]) for name, p in model.named_parameters()]
    own = [p.data for p, _ in params]
    try:
        for p, value in params:
            p.data = value.astype(p.data.dtype, copy=False).reshape(p.data.shape)
        yield model
    finally:
        for (p, _), data in zip(params, own):
            p.data = data


def add_payload(params: Mapping[str, object], payload: Mapping[str, object], scale: float = 1.0) -> None:
    """Accumulate a per-layer update into parameters, in place.

    ``params`` maps layer name → Parameter (anything with ``.data``);
    ``payload`` layers may be dense ``np.ndarray`` or any wire codec with
    ``add_into``/``to_dense``.  This (with :func:`copy_payload` and
    :func:`assign_parameters`) is the blessed mutation path for parameter
    data outside ``autograd/``/``optim/`` — see lint rule TEN001.
    """
    for name, layer in payload.items():
        dest = params[name].data
        if isinstance(layer, np.ndarray):
            if scale == 1.0:
                dest += layer
            else:
                dest += scale * layer
        elif scale == 1.0:
            layer.add_into(dest)
        else:
            dest += scale * layer.to_dense()


def copy_payload(params: Mapping[str, object], values: Mapping[str, np.ndarray]) -> None:
    """Overwrite parameters with ``values`` layerwise (dense replacement)."""
    for name, arr in values.items():
        np.copyto(params[name].data, arr)


def scale_payload(payload: Mapping[str, object], factor: float) -> "OrderedDict[str, object]":
    """Scale a per-layer update by ``factor`` without mutating the original.

    Used by the server's staleness damping (gap-aware 1/(τ+1) scaling).
    Every codec type is scaled in its compressed form — quantised payloads
    fold the factor into their scalar scale/norm field — so damping never
    materialises a dense tensor or changes a payload's wire size.
    """
    from ..compression.coding import (
        BitmapTensor,
        DenseTensor,
        QuantizedSparseTensor,
        SparseTensor,
    )
    from ..compression.qsgd import QSGDTensor
    from ..compression.terngrad import TernaryTensor

    out: "OrderedDict[str, object]" = OrderedDict()
    for name, layer in payload.items():
        if isinstance(layer, (SparseTensor, BitmapTensor)):  # COO in memory, both
            out[name] = type(layer)(layer.indices, layer.values * factor, layer.shape)
        elif isinstance(layer, QuantizedSparseTensor):
            out[name] = QuantizedSparseTensor(
                layer.indices, layer.signs, layer.scale * factor, layer.shape
            )
        elif isinstance(layer, TernaryTensor):
            out[name] = TernaryTensor(layer.signs, layer.scale * factor, layer.shape)
        elif isinstance(layer, QSGDTensor):
            out[name] = QSGDTensor(layer.levels, layer.norm * factor, layer.s, layer.shape)
        elif isinstance(layer, DenseTensor):
            out[name] = DenseTensor(layer.data * factor)
        elif isinstance(layer, np.ndarray):
            out[name] = layer * factor
        else:  # unknown payload type: dense is the only safe route left
            out[name] = layer.to_dense() * factor
    return out


def add_scaled(dest: np.ndarray, src: np.ndarray, scale: float) -> None:
    """``dest += scale * src`` in place, without a ``src``-sized temporary.

    One chunked pass: ``scale * src`` is rounded into a ``dest``-dtype
    chunk buffer (:data:`~repro.compression.coding.CHUNK` elements,
    allocated per call) and added from there, so a float64 gradient folds
    into float32 state through 128 KiB of scratch instead of a full-layer
    float64 product.  At equal dtype the result is bitwise
    ``dest += scale * src``.
    """
    if not dest.flags.c_contiguous:  # reshape(-1) would write to a copy
        raise ValueError("add_scaled needs a C-contiguous dest")
    d, s = dest.reshape(-1), src.reshape(-1)
    scratch = np.empty(min(d.size, CHUNK), dtype=d.dtype)
    for start in range(0, d.size, CHUNK):
        d_chunk = d[start : start + CHUNK]
        prod = scratch[: d_chunk.size]
        np.multiply(s[start : start + CHUNK], scale, out=prod, casting="same_kind")
        np.add(d_chunk, prod, out=d_chunk)
