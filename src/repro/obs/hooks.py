"""Opt-in profiling hooks for the hot paths.

``profile_hot_paths()`` patches timed wrappers over the places every
training iteration pays for:

* **autograd** — op dispatch: ``conv2d`` / pooling functionals,
  ``Tensor.matmul`` and ``Tensor.backward`` (the whole reverse sweep);
* **compression** — top-k / adaptive-threshold selection and COO mask
  encoding (``encode_mask``);
* **codec** — wire ``encode_message`` / ``decode_message``
  (the process trainer's serialisation cost).

Hooks are strictly opt-in: nothing is patched at import time, so with
tracing disabled the hot paths run the original, unwrapped functions —
zero overhead (the ≤3% bench budget is spent only when profiling is on).
Wrapped functions emit spans to the *ambient* tracer
(:func:`repro.obs.tracer.current_tracer`), so one ``use_tracer`` block
captures every layer.  Patches are reference-tracked and fully restored
on exit, including module namespaces that re-bound the original name at
import time (``repro.nn.conv``'s ``conv2d``, ``repro.core.strategies``'s
``encode_mask``, …).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Iterator

from .tracer import current_tracer

__all__ = ["HOT_PATH_GROUPS", "profile_hot_paths"]

#: patchable hook groups accepted by :func:`profile_hot_paths`
HOT_PATH_GROUPS = ("autograd", "compression", "codec")


def _timed(fn: Callable, name: str, cat: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        with current_tracer().span(name, cat=cat):
            return fn(*args, **kwargs)

    wrapper.__repro_obs_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _PatchSet:
    """Applies attribute patches and restores them in reverse order."""

    def __init__(self) -> None:
        self._applied: list[tuple[Any, str, Any]] = []

    def patch_everywhere(self, holders: "list[Any]", attr: str, name: str, cat: str) -> None:
        """Wrap ``holders[0].attr`` and rebind in every namespace holding it."""
        original = getattr(holders[0], attr)
        if getattr(original, "__repro_obs_wrapped__", None) is not None:
            return  # already profiled (nested profile_hot_paths)
        wrapped = _timed(original, name, cat)
        for holder in holders:
            if getattr(holder, attr, None) is original:
                self._applied.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._applied):
            setattr(holder, attr, original)
        self._applied.clear()


def _patch_autograd(patches: _PatchSet) -> None:
    from .. import autograd as ag_pkg
    from ..autograd import ops as ag_ops
    from ..autograd.tensor import Tensor
    from ..nn import conv as nn_conv

    for fname in ("conv2d", "max_pool2d", "global_avg_pool2d"):
        patches.patch_everywhere([ag_ops, ag_pkg, nn_conv], fname, f"autograd.{fname}", "autograd")
    patches.patch_everywhere([Tensor], "backward", "autograd.backward", "autograd")
    original_matmul = Tensor.matmul
    patches.patch_everywhere([Tensor], "matmul", "autograd.matmul", "autograd")
    if Tensor.__matmul__ is original_matmul:
        patches.patch_everywhere([Tensor], "__matmul__", "autograd.matmul", "autograd")


def _patch_compression(patches: _PatchSet) -> None:
    from .. import compression as comp_pkg
    from ..compression import coding as comp_coding
    from ..compression.adaptive import AdaptiveThresholdSparsifier
    from ..compression.topk import TopKSparsifier
    from ..core import strategies as core_strategies

    patches.patch_everywhere([TopKSparsifier], "mask", "compression.topk.mask", "compression")
    # The arena hot path takes the fused select() kernel instead of
    # mask()+encode_mask(); hook it too or traced arena runs (the default)
    # lose the whole compression category.
    patches.patch_everywhere([TopKSparsifier], "select", "compression.topk.select", "compression")
    patches.patch_everywhere(
        [AdaptiveThresholdSparsifier], "mask", "compression.adaptive.mask", "compression"
    )
    patches.patch_everywhere(
        [comp_coding, comp_pkg, core_strategies], "encode_mask", "compression.encode_mask", "compression"
    )


def _patch_codec(patches: _PatchSet) -> None:
    from .. import ps as ps_pkg
    from ..comm import frames as comm_frames
    from ..ps import codec as ps_codec

    # comm.frames holds the only by-name copies of the codec functions now
    # that the trainers route every exchange through the channel layer.
    for fname in ("encode_message", "decode_message"):
        patches.patch_everywhere(
            [ps_codec, ps_pkg, comm_frames], fname, f"codec.{fname}", "codec"
        )


@contextlib.contextmanager
def profile_hot_paths(groups: "tuple[str, ...]" = HOT_PATH_GROUPS) -> "Iterator[None]":
    """Context manager installing the hot-path span wrappers.

    ``groups`` selects hook families from :data:`HOT_PATH_GROUPS`.
    Wrappers emit to whatever tracer is ambient *at call time*, so this
    composes with :func:`repro.obs.tracer.use_tracer` in either order.
    """
    unknown = set(groups) - set(HOT_PATH_GROUPS)
    if unknown:
        raise ValueError(f"unknown hot-path groups: {sorted(unknown)}")
    patches = _PatchSet()
    try:
        if "autograd" in groups:
            _patch_autograd(patches)
        if "compression" in groups:
            _patch_compression(patches)
        if "codec" in groups:
            _patch_codec(patches)
        yield
    finally:
        patches.restore()
