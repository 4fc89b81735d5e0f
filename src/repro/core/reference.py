"""The parity oracle: the paper's arithmetic on dict-of-float64 state.

Production holds all distributed state in :class:`~repro.core.arena.LayerArena`
buffers, applies updates with fused flat ops, selects with the fused
kernels and answers the Eq. 5 reply from a journal.  This module is the
same arithmetic written literally, per layer, on a dict of independently
allocated arrays (float64 unless a ``dtype`` is given): ``M`` plus K
per-worker ``v_k`` with Eq. 1 and Eq. 3/6 as a dense scan, and the dense,
Algorithm 1, DGC and Algorithm 3 worker updates.  At equal dtype the two
are bitwise equal; the parity suites hold them to it.  A run reaches this
module only through ``RunConfig(arena=False)``, which
:mod:`repro.exec.common` turns into :func:`install_reference_server` and
:func:`reference_strategy`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Mapping

import numpy as np

from ..compression.coding import SparseTensor, encode_best, encode_mask
from ..optim.clip import clip_by_global_norm
from .extensions import DGSTernGradStrategy
from .layerops import zeros_like_layers
from .strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
    WorkerStrategy,
)
from .tracker import ModelDifferenceTracker

__all__ = [
    "ReferenceTracker",
    "ReferenceDenseStrategy",
    "ReferenceGradientDroppingStrategy",
    "ReferenceDGCStrategy",
    "ReferenceSAMomentumStrategy",
    "ReferenceDGSTernGradStrategy",
    "reference_strategy",
    "install_reference_server",
]


class _DictState:
    """State as one independent zeroed array per layer, of ``dtype``."""

    def _make_buffers(self) -> "OrderedDict[str, np.ndarray]":
        return zeros_like_layers(self.shapes, self.dtype)


class ReferenceTracker(_DictState, ModelDifferenceTracker):
    """The paper's server state (§4.2): dict ``M`` and K dict ``v_k``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._journal = self._diff = None
        if self.track_differences:
            self._buffers = [self._make_buffers() for _ in range(self.num_workers)]

    def apply_update(self, update: "Mapping[str, object]") -> int:
        """``M ← M − g`` (Eq. 1), layer by layer."""
        for name, g in update.items():
            dest = self.M[name]
            if isinstance(g, SparseTensor):
                dest.reshape(-1)[g.indices] -= g.values
            elif hasattr(g, "to_dense"):  # quantised payloads (extensions)
                dest -= g.to_dense()
            else:
                dest -= g
        self.t += 1
        return self.t

    def model_difference(self, worker: int) -> "OrderedDict[str, object]":
        """``G = M − v_k`` by a dense scan of every layer (Eq. 3/6)."""
        if not self.track_differences:
            raise RuntimeError("model_difference() requires track_differences=True")
        vk = self._buffers[worker]
        out: "OrderedDict[str, object]" = OrderedDict()
        for name, m_layer in self.M.items():
            diff = m_layer - vk[name]
            if self.secondary is not None:
                mask = self.secondary.mask(diff)
                sent = encode_mask(diff, mask)
                # v_k advances only by what was actually sent (Eq. 6b) —
                # the remainder is implicitly accumulated for later.
                sent.add_into(vk[name])
            else:
                # G densifies with staleness; pick the cheapest wire format
                # per layer (COO / bitmap / dense — see encode_best).
                sent = encode_best(diff)
                np.copyto(vk[name], m_layer)  # v_k == M (Eq. 3)
            out[name] = sent
        self.prev[worker] = self.t
        return out

    def flat_state(self) -> "Iterator[np.ndarray]":
        """``M, v_0, …``, each concatenated per layer in ``shapes`` order."""
        for buffers in (self.M, *self._buffers):
            yield np.concatenate([arr.reshape(-1) for arr in buffers.values()])


class ReferenceDenseStrategy(_DictState, DenseStrategy):
    """ASGD upload: a fresh η∇ per layer."""

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, lr * g) for name, g in grads.items())


class ReferenceGradientDroppingStrategy(_DictState, GradientDroppingStrategy):
    """Algorithm 1: ``r ← r + η∇``; send ``r ⊙ mask``; keep ``r ⊙ ¬mask``."""

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        for name, g in grads.items():
            r = self.residual[name]
            r += lr * g
            mask = self.sparsifier.mask(r)
            out[name] = encode_mask(r, mask)
            r[mask] = 0.0
        return out


class ReferenceDGCStrategy(_DictState, DGCStrategy):
    """DGC-async: momentum correction and factor masking, layer by layer."""

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        if self.clip_norm is not None:
            grads = OrderedDict((name, g.copy()) for name, g in grads.items())
            clip_by_global_norm(list(grads.values()), self.clip_norm)
        sparsifier = self._current_sparsifier()
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        for name, g in grads.items():
            u, v = self.u[name], self.v[name]
            u *= self.momentum
            u += lr * g  # momentum correction: velocity, not raw gradient
            v += u
            mask = sparsifier.mask(v)
            out[name] = encode_mask(v, mask)
            v[mask] = 0.0
            u[mask] = 0.0  # momentum factor masking
        self.iteration += 1
        return out


class ReferenceSAMomentumStrategy(_DictState, SAMomentumStrategy):
    """Algorithm 3, stored form: ``u += η∇``; send ``u ⊙ mask``; ``u[mask] *= m``."""

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        m = self.momentum
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        for name, g in grads.items():
            u = self.u[name]
            u += lr * g
            mask = self.sparsifier.mask(u)
            out[name] = encode_mask(u, mask)
            u[mask] *= m
        return out


class ReferenceDGSTernGradStrategy(_DictState, DGSTernGradStrategy):
    """DGS + TernGrad on dict state (its ``prepare`` is per layer already)."""


_TWINS: "dict[type, type]" = {
    DenseStrategy: ReferenceDenseStrategy,
    GradientDroppingStrategy: ReferenceGradientDroppingStrategy,
    DGCStrategy: ReferenceDGCStrategy,
    SAMomentumStrategy: ReferenceSAMomentumStrategy,
    DGSTernGradStrategy: ReferenceDGSTernGradStrategy,
}


def reference_strategy(strategy: WorkerStrategy) -> WorkerStrategy:
    """``strategy``'s oracle twin: the same attributes, fresh dict state.

    A strategy with no state of its own (the §6 quantisers, random
    dropping) has one implementation and is returned as it is.
    """
    twin = _TWINS.get(type(strategy))
    if twin is None:
        return strategy
    oracle = object.__new__(twin)
    oracle.__dict__.update(vars(strategy))
    # each state buffer is the attribute it checkpoints as
    for name in strategy._buffers():
        setattr(oracle, name, oracle._make_buffers())
    return oracle


def install_reference_server(server, theta0: "Mapping[str, np.ndarray]"):
    """Give a freshly built (plain or sharded) server the oracle's state:
    θ0 as copies of ``theta0``'s layers and a :class:`ReferenceTracker`
    configured like each tracker it replaces.  Returns ``server``."""
    for node in getattr(server, "shards", (server,)):
        old = node.tracker
        node.theta0 = OrderedDict((name, theta0[name].copy()) for name in old.shapes)
        node.tracker = ReferenceTracker(
            old.shapes, old.num_workers, old.secondary, old.track_differences, old.dtype
        )
    return server
