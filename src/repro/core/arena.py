"""Flat-buffer parameter arena — one contiguous vector per logical LayerMap.

All distributed state in this reproduction (the server's ``M`` and ``v_k``,
worker residuals/momenta, dense update payloads) is a mapping ``layer name
-> ndarray``, and production holds every one of them as a
:class:`LayerArena`: **one contiguous buffer with named per-layer views**.
It implements the ``Mapping[str, np.ndarray]`` protocol, so everything
that walks layers (checkpointing, byte accounting, the codec) reads it
like a dict — but the whole-state operations collapse to single
vectorised in-place ops on ``flat``, which on the server run *under the
lock*:

========================  =============================================
per-layer loop            arena equivalent
========================  =============================================
``d[n] += scale * s[n]``  ``d.add_(s, scale)`` — one fused axpy
``{n: x[n].copy()}``      ``x.clone()`` — one memcpy
``copy_payload``-style    ``d.copy_(s)`` — one memcpy
``add_payload`` loop      ``d.add_payload(p)`` — one op for dense
                          arena payloads, per-layer scatter otherwise
``np.concatenate`` of x   ``x.flat`` — zero-copy view
========================  =============================================

Because elementwise IEEE arithmetic does not depend on how the operands
are batched, every arena op is **bitwise-identical** to the corresponding
per-layer loop at equal dtype.  The per-layer loops themselves live in
:mod:`repro.core.reference`, the dict-of-float64 parity oracle; the
property tests in ``tests/properties/test_prop_arena_parity.py`` pin the
two against each other.

Dtype: the arena defaults to float32 — the wire dtype (``VALUE_BYTES = 4``)
and the dtype real deployments hold end-to-end — halving the memory
traffic of every whole-state op.  Pass ``dtype=np.float64`` to compare
against the oracle bit for bit (that is what the parity tests and
``RunConfig(arena_dtype="float64")`` do).

Ownership rules are documented in ``docs/performance.md``: an arena
returned by a strategy's ``prepare()`` is valid until the *next*
``prepare()`` on the same strategy — safe under the strict request→reply
cycle every backend runs, because the server consumes the payload before
the worker computes again.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping as MappingABC
from typing import Mapping

import numpy as np

__all__ = ["LayerArena"]


class LayerArena(MappingABC):
    """One contiguous buffer holding a whole ``layer name -> ndarray`` map.

    ``arena.flat`` is the 1-D backing buffer; ``arena[name]`` is a
    zero-copy view of that buffer shaped like the layer.  Mutating either
    mutates the other — that aliasing is the point.
    """

    __slots__ = ("flat", "shapes", "_views", "_spans")

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        dtype: "np.dtype | type | str" = np.float32,
        _flat: "np.ndarray | None" = None,
    ) -> None:
        self.shapes: "OrderedDict[str, tuple[int, ...]]" = OrderedDict(
            (name, tuple(shape)) for name, shape in shapes.items()
        )
        sizes = [int(np.prod(shape)) for shape in self.shapes.values()]
        total = int(sum(sizes))
        if _flat is None:
            self.flat = np.zeros(total, dtype=dtype)
        else:
            if _flat.ndim != 1 or _flat.size != total:
                raise ValueError(
                    f"backing buffer has {_flat.size} elements, shapes need {total}"
                )
            self.flat = np.ascontiguousarray(_flat, dtype=dtype)
        self._spans: "dict[str, tuple[int, int]]" = {}
        self._views: "OrderedDict[str, np.ndarray]" = OrderedDict()
        offset = 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            self._spans[name] = (offset, offset + size)
            self._views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size

    # -- construction ---------------------------------------------------
    @classmethod
    def from_layers(
        cls, layers: "Mapping[str, np.ndarray]", dtype: "np.dtype | type | str | None" = None
    ) -> "LayerArena":
        """Pack an existing LayerMap into a fresh arena (copies the data).

        ``dtype=None`` keeps the layers' common dtype instead of forcing
        the float32 default — loading float64 reference state must not
        silently round it.
        """
        if dtype is None:
            arrays = list(layers.values())
            dtype = np.result_type(*arrays) if arrays else np.dtype(np.float32)
        arena = cls(OrderedDict((n, a.shape) for n, a in layers.items()), dtype=dtype)
        for name, arr in layers.items():
            np.copyto(arena._views[name], arr)
        return arena

    # -- Mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    # -- introspection --------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def size(self) -> int:
        return self.flat.size

    @property
    def nbytes(self) -> int:
        return self.flat.nbytes

    def span(self, name: str) -> "tuple[int, int]":
        """``(start, end)`` of ``name``'s slice inside :attr:`flat`."""
        return self._spans[name]

    def same_layout(self, other: object) -> bool:
        """True when ``other`` is an arena mapping the same names to the
        same shapes in the same order — the precondition for flat-level
        fused ops."""
        # OrderedDict ==: order-sensitive
        return isinstance(other, LayerArena) and self.shapes == other.shapes

    # -- vectorised whole-state ops ------------------------------------
    def zero_(self) -> "LayerArena":
        self.flat.fill(0)
        return self

    def clone(self) -> "LayerArena":
        """Deep copy (one memcpy of ``flat``)."""
        return LayerArena(self.shapes, dtype=self.dtype, _flat=self.flat.copy())

    def copy_(self, other: "LayerArena | Mapping[str, np.ndarray]") -> "LayerArena":
        """Overwrite this arena from ``other`` (one memcpy when fused)."""
        if self.same_layout(other):
            np.copyto(self.flat, other.flat)
            return self
        for name, view in self._views.items():
            np.copyto(view, other[name])
        return self

    def add_(
        self, other: "LayerArena | Mapping[str, np.ndarray]", scale: float = 1.0
    ) -> "LayerArena":
        """``self += scale * other`` over the whole buffer at once."""
        if self.same_layout(other):
            _accumulate(self.flat, other.flat, scale)
            return self
        for name, view in self._views.items():
            _accumulate(view, other[name], scale)
        return self

    def scale_(self, factor: float) -> "LayerArena":
        self.flat *= factor
        return self

    def add_payload(self, payload: "Mapping[str, object]", scale: float = 1.0) -> "LayerArena":
        """Accumulate a per-layer update of any payload type, in place.

        Dense arena payloads with matching layout collapse to a single
        fused op over :attr:`flat`; everything else (codec payload objects,
        plain dicts of arrays) falls back to per-layer application with the
        same arithmetic as :func:`repro.core.layerops.add_payload`.
        """
        if self.same_layout(payload):
            _accumulate(self.flat, payload.flat, scale)
            return self
        for name, layer in payload.items():
            dest = self._views[name]
            if isinstance(layer, np.ndarray):
                _accumulate(dest, layer, scale)
            elif scale == 1.0 and hasattr(layer, "add_into"):
                layer.add_into(dest)
            elif scale == -1.0 and hasattr(layer, "indices") and hasattr(layer, "values"):
                # COO fast path: scatter-subtract, no dense materialisation.
                dest.reshape(-1)[layer.indices] -= layer.values
            else:
                dest += scale * layer.to_dense(dest.dtype)
        return self

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> "dict[str, np.ndarray]":
        return {name: view.copy() for name, view in self._views.items()}

    def load_state_dict(self, state: "Mapping[str, np.ndarray]") -> None:
        for name, view in self._views.items():
            np.copyto(view, state[name])

    # -- pickling -------------------------------------------------------
    def __reduce__(self):
        # Default pickling of __slots__ + view-aliasing would either fail
        # or ship every view as an independent full copy; rebuild from the
        # flat buffer so the views re-alias it on the other side.
        return (_rebuild_arena, (dict(self.shapes), str(self.dtype), self.flat))

    def __repr__(self) -> str:
        return (
            f"LayerArena({len(self._views)} layers, size={self.size}, dtype={self.dtype})"
        )


def _accumulate(dest: np.ndarray, src: np.ndarray, scale: float) -> None:
    """``dest += scale * src`` without a temporary for the ±1 fast paths.

    ``dest - src`` and ``dest + (-1.0)*src`` are bitwise-identical in IEEE
    arithmetic, so the fast paths preserve parity with the reference loops.
    """
    if scale == 1.0:
        dest += src
    elif scale == -1.0:
        dest -= src
    else:
        dest += scale * src


def _rebuild_arena(shapes, dtype, flat) -> LayerArena:
    return LayerArena(OrderedDict(shapes), dtype=dtype, _flat=flat)
