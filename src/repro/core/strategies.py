"""Worker-side gradient emission strategies.

Each strategy consumes the freshly computed per-layer gradients (∇L) and the
current learning rate, and produces the per-layer *update* the worker ships
to the server.  The server's single update rule is ``M ← M − g`` (Eq. 1),
so every strategy emits updates already scaled by η (matching Algorithms
1 and 3, where the residual/momentum accumulates ``η∇``).

Implemented strategies map onto the paper's Table 5 rows:

=============  ============================================================
``dense``      ASGD — send η∇ dense, no local state.
``dropping``   Gradient Dropping (Aji & Heafield; Algorithm 1) — residual
               accumulation + per-layer Top-k.
``dgc``        Deep Gradient Compression (Lin et al.) — momentum
               correction + momentum factor masking + warmup sparsity ramp
               + gradient clipping.
``samomentum`` The paper's SAMomentum (Algorithm 3, Eq. 14–15).
=============  ============================================================

State lives in :class:`~repro.core.arena.LayerArena` s; the selection and
accumulate kernels stream through per-call chunk buffers.  The paper's
per-layer arithmetic on dict-of-float64 state is
:mod:`repro.core.reference`, the parity oracle these strategies are
bitwise equal to at equal dtype.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.base import Sparsifier
from ..compression.coding import SparseTensor, encode_mask
from ..compression.topk import TopKSparsifier
from ..optim.clip import clip_by_global_norm
from .arena import LayerArena
from .layerops import add_scaled

__all__ = [
    "WorkerStrategy",
    "DenseStrategy",
    "GradientDroppingStrategy",
    "DGCStrategy",
    "SAMomentumStrategy",
    "SparsityRamp",
]


class WorkerStrategy(ABC):
    """Transforms local gradients into the update message sent upstream.

    State buffers are :class:`~repro.core.arena.LayerArena` s of ``dtype``
    (float32 unless overridden).
    """

    #: whether :meth:`prepare` returns sparse (COO) or dense layers
    sparse_output: bool = True

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        self.shapes = OrderedDict(shapes)
        self.dtype = dtype

    def _make_buffers(self) -> LayerArena:
        """Zeroed per-layer state."""
        return LayerArena(self.shapes, dtype=np.float32 if self.dtype is None else self.dtype)

    @staticmethod
    def _select(sparsifier: Sparsifier, arr: np.ndarray) -> SparseTensor:
        """Select: fused where the sparsifier has one, mask+encode otherwise.

        Both routes pick the identical entry set (one ``_topk_indices``
        helper, see ``compression.topk``) — only the allocations differ.
        """
        st = sparsifier.select(arr)
        if st is None:
            st = encode_mask(arr, sparsifier.mask(arr))
        return st

    @abstractmethod
    def prepare(
        self, grads: Mapping[str, np.ndarray], lr: float
    ) -> "OrderedDict[str, SparseTensor] | OrderedDict[str, np.ndarray]":
        """Return the per-layer update to send for this iteration."""

    def state_bytes(self) -> int:
        """Worker-local buffer memory (for the §5.6.2 accounting)."""
        return 0

    def on_iteration(self) -> None:
        """Hook called once per local iteration (warmup ramps etc.)."""

    # ------------------------------------------------------------------
    # Checkpointing: subclasses expose their named buffers here.
    def _buffers(self) -> "dict[str, OrderedDict[str, np.ndarray]]":
        return {}

    def state_dict(self) -> "dict[str, np.ndarray]":
        """Snapshot the strategy's local buffers (residuals, momenta)."""
        state: dict[str, np.ndarray] = {}
        for buf_name, layers in self._buffers().items():
            for layer_name, arr in layers.items():
                state[f"{buf_name}/{layer_name}"] = arr.copy()
        return state

    def load_state_dict(self, state: "Mapping[str, np.ndarray]") -> None:
        """Restore buffers saved by :meth:`state_dict`."""
        for buf_name, layers in self._buffers().items():
            for layer_name, arr in layers.items():
                np.copyto(arr, state[f"{buf_name}/{layer_name}"])


class DenseStrategy(WorkerStrategy):
    """Vanilla ASGD upload: the full η∇, no compression, no local state."""

    sparse_output = False

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        super().__init__(shapes, dtype=dtype)
        # One output arena reused across iterations (valid until the next
        # prepare(); safe under the strict request→reply cycle).
        self._out = self._make_buffers()

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> LayerArena:
        for name, g in grads.items():
            np.multiply(g, lr, out=self._out[name])
        return self._out


class GradientDroppingStrategy(WorkerStrategy):
    """Algorithm 1: residual accumulation + per-layer Top-k selection.

    ``r ← r + η∇``; send ``r ⊙ mask``; keep ``r ⊙ ¬mask`` locally.
    Invariant (tested): sent + residual always equals the total accumulated
    η∇ mass — nothing is lost, only delayed.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        sparsifier: Sparsifier,
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        super().__init__(shapes, dtype=dtype)
        self.sparsifier = sparsifier
        self.residual = self._make_buffers()

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        for name, g in grads.items():
            r = self.residual[name]
            add_scaled(r, g, lr)
            st = self._select(self.sparsifier, r)
            out[name] = st
            # Zero the sent coordinates through the fused tensor's
            # indices — the same set r[mask] = 0.0 would clear.
            r.reshape(-1)[st.indices] = 0.0
        return out

    def state_bytes(self) -> int:
        return sum(r.nbytes for r in self.residual.values())

    def _buffers(self):
        return {"residual": self.residual}


class SparsityRamp:
    """DGC's warmup schedule: exponentially ramp sparsity over early epochs.

    Lin et al. ramp 75% → 93.75% → 98.4375% → 99.6% over the first epochs;
    expressed here as a send-ratio ramp from ``start_ratio`` down to
    ``final_ratio`` by a constant factor per epoch.
    """

    def __init__(
        self,
        final_ratio: float,
        warmup_epochs: int = 4,
        start_ratio: float = 0.25,
        iterations_per_epoch: int = 1,
    ) -> None:
        if not 0 < final_ratio <= 1 or not 0 < start_ratio <= 1:
            raise ValueError("ratios must be in (0, 1]")
        if iterations_per_epoch < 1:
            raise ValueError("iterations_per_epoch must be >= 1")
        self.final_ratio = final_ratio
        self.start_ratio = max(start_ratio, final_ratio)
        self.warmup_epochs = warmup_epochs
        self.iterations_per_epoch = iterations_per_epoch
        if warmup_epochs > 0 and self.start_ratio > final_ratio:
            self._decay = (final_ratio / self.start_ratio) ** (1.0 / warmup_epochs)
        else:
            self._decay = 1.0

    def ratio_at(self, iteration: int) -> float:
        epoch = iteration // self.iterations_per_epoch
        if epoch >= self.warmup_epochs:
            return self.final_ratio
        return self.start_ratio * self._decay**epoch


class DGCStrategy(WorkerStrategy):
    """Deep Gradient Compression, asynchronous variant (DGC-async).

    Momentum correction: accumulate *velocity* rather than raw gradient in
    the residual ``v``; momentum factor masking: zero both ``u`` and ``v``
    at sent coordinates; plus gradient clipping and the warmup sparsity
    ramp.  (The paper grants DGC-async all of these tricks — §5 setup.)
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        ratio: float,
        momentum: float,
        ramp: SparsityRamp | None = None,
        clip_norm: float | None = None,
        min_sparse_size: int = 256,
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        super().__init__(shapes, dtype=dtype)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.ratio = ratio
        self.momentum = momentum
        self.ramp = ramp
        self.clip_norm = clip_norm
        self.min_sparse_size = min_sparse_size
        self.iteration = 0
        self.u = self._make_buffers()
        self.v = self._make_buffers()

    def _current_sparsifier(self) -> TopKSparsifier:
        ratio = self.ramp.ratio_at(self.iteration) if self.ramp is not None else self.ratio
        return TopKSparsifier(ratio, min_sparse_size=self.min_sparse_size)

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        if self.clip_norm is not None:
            grads = OrderedDict((name, g.copy()) for name, g in grads.items())
            clip_by_global_norm(list(grads.values()), self.clip_norm)
        sparsifier = self._current_sparsifier()
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        # Fused decay across all layers (layers are independent, so one
        # whole-buffer multiply matches the per-layer u *= m exactly).
        self.u.flat *= self.momentum
        for name, g in grads.items():
            u, v = self.u[name], self.v[name]
            # momentum correction: velocity, not raw gradient
            add_scaled(u, g, lr)
            v += u
            st = self._select(sparsifier, v)
            out[name] = st
            idx = st.indices
            v.reshape(-1)[idx] = 0.0
            u.reshape(-1)[idx] = 0.0  # momentum factor masking
        self.iteration += 1
        return out

    def state_bytes(self) -> int:
        return sum(a.nbytes for a in self.u.values()) + sum(a.nbytes for a in self.v.values())

    def _buffers(self):
        return {"u": self.u, "v": self.v}


class SAMomentumStrategy(WorkerStrategy):
    """The paper's SAMomentum (Algorithm 3, Eq. 14–16).

    Per iteration and layer::

        u ← u + η∇                           (u now holds the velocity)
        mask ← |u| in top R%
        send  u ⊙ mask
        u ← u − (1 − m)·(u ⊙ mask)           (decay only what was sent)

    Algorithm 3 as printed decays everything (``u ← m·u + η∇``) and divides
    the unsent remainder by ``m`` so that the next decay cancels (Eq. 15);
    Eq. 16 is that cancellation, so only the k sent entries ever need the
    factor — applied here at the end of the step that sent them.

    **Stored form:** ``u`` holds ``m·u_paper`` — unsent coordinates hold the
    velocity ``η·Σ∇`` since their last send, sent ones hold it pre-decayed.
    Payloads equal the printed form's up to rounding (``(u/m)·m`` is not
    bitwise ``u``).  A ``state_dict`` written by code that stored the
    printed form's ``u`` is not loadable: restore with the code that saved.

    Momentum never "disappears" (Eq. 16); sparsification becomes a
    per-parameter enlarged batch (Eq. 17).  There is **no** separate
    residual buffer — ``u`` itself carries the unsent mass, which is the
    memory saving claimed in §5.6.2.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        sparsifier: Sparsifier,
        momentum: float,
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        super().__init__(shapes, dtype=dtype)
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"SAMomentum requires momentum in (0, 1), got {momentum}")
        self.sparsifier = sparsifier
        self.momentum = momentum
        self.u = self._make_buffers()

    def prepare(self, grads: Mapping[str, np.ndarray], lr: float) -> "OrderedDict[str, SparseTensor]":
        m = self.momentum
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        for name, g in grads.items():
            u = self.u[name]
            add_scaled(u, g, lr)
            st = self._select(self.sparsifier, u)
            out[name] = st
            u.reshape(-1)[st.indices] *= m
        return out

    def state_bytes(self) -> int:
        return sum(u.nbytes for u in self.u.values())

    def _buffers(self):
        return {"u": self.u}
