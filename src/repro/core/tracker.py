"""Model Difference Tracking — the server side of DGS (§4.2, Algorithm 2).

The server never materialises per-worker models.  It keeps:

* ``M`` — the accumulation of all applied updates, ``M_t = θ_t − θ_0``
  (Eq. 2).  Updates arrive as per-layer values ``g`` already scaled by η,
  and are applied as ``M ← M − g`` (Eq. 1).
* ``v_k`` — per worker, the accumulation of everything already shipped to
  worker ``k`` (Eq. 3/6b).

On each exchange with worker ``k`` the server answers with the *model
difference* ``G = M − v_k`` (Eq. 3), optionally secondary-compressed
(Eq. 6a), then advances ``v_k ← v_k + G``.  Without secondary compression
``v_k == M`` after every exchange, which makes DGS exactly equivalent to
download-the-whole-model ASGD (Eq. 5) — the headline invariant of §4.2.1.

That invariant also says where ``G`` can be nonzero: only at indices some
update applied since ``prev(k)`` wrote.  The arena path without secondary
compression therefore keeps a bounded *dirty-index journal* of recent
updates and answers from it in O(staleness·k) instead of scanning all n
elements; the dense scan stays as the fallback (journal does not reach
back to ``prev(k)``, or a layer has too many candidates) and is what the
dict reference path always runs.  Both produce bitwise the same reply.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.base import Sparsifier
from ..compression.coding import (
    VALUE_DTYPE,
    SparseTensor,
    cheapest_format,
    encode_best,
    encode_mask,
)
from ..compression.workspace import KernelWorkspace
from .arena import LayerArena, make_layer_buffers

__all__ = ["ModelDifferenceTracker"]

#: Candidate indices per layer, as a fraction of the layer's size, above
#: which the dense scan answers faster than the journal — and, applied to
#: the whole model, the number of indices the journal retains.  Measured
#: with the ``diff_reply_eq5_*`` kernel pairs (786 432-element float32
#: layer, 1 % updates); see docs/performance.md, "The Eq. 5 reply is
#: O(staleness·k)", for the sweep.
_JOURNAL_MAX_FRACTION = 1 / 6
_INT32_MAX = 2**31 - 1


class ModelDifferenceTracker:
    """Server state for dual-way sparsification (M, per-worker v_k).

    ``arena=True`` stores M and every v_k as
    :class:`~repro.core.arena.LayerArena` buffers (float32 unless ``dtype``
    overrides): applying an update or advancing v_k becomes one fused op
    over the flat buffer — shortening the server's lock hold — and the
    model-difference encode draws scratch from a tracker-owned
    :class:`KernelWorkspace`.  ``arena=False`` is the dict-of-float64
    reference path, bitwise-identical at equal dtype.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        num_workers: int,
        secondary: Sparsifier | None = None,
        track_differences: bool = True,
        arena: bool = False,
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.shapes = OrderedDict(shapes)
        self.num_workers = num_workers
        self.secondary = secondary
        self.track_differences = track_differences
        self.arena = bool(arena)
        #: construction-time dtype request, reused when a late joiner's
        #: v_k buffer is grown (the new buffer must match the old ones)
        self.buffer_dtype = dtype
        self.workspace: "KernelWorkspace | None" = KernelWorkspace() if self.arena else None
        self.M = make_layer_buffers(self.shapes, self.arena, dtype)
        # v_k buffers exist only under difference tracking — vanilla ASGD
        # downloads the whole model and pays no per-worker server memory.
        self.v = [
            make_layer_buffers(self.shapes, self.arena, dtype)
            for _ in range(num_workers if track_differences else 0)
        ]
        # Reused scratch arena for M − v_k (arena mode only; overwritten on
        # every model_difference call, never escapes the tracker).
        self._diff: "LayerArena | None" = (
            LayerArena(self.shapes, dtype=self.M.dtype) if self.arena else None
        )
        #: server timestamp t — incremented once per applied update (Table 1)
        self.t = 0
        #: prev(k): server timestamp of worker k's last download (Table 1)
        self.prev = [0] * num_workers
        #: dirty-index journal: one ``{layer: indices | None}`` per applied
        #: update, for the ``len(journal)`` most recent ones (entry ``i`` is
        #: update ``t - len + 1 + i``), so it covers ``(t - len, t]`` and
        #: clearing it puts that floor at ``t``.  ``None`` = the layer
        #: arrived without indices, i.e. it is dirty everywhere; a layer the
        #: update skipped is absent.  The index arrays are *references* to
        #: the payload's own — safe because payload classes are immutable
        #: and their producers hand over memory they own (``topk_select``
        #: allocates fresh indices, the codec's ``_decode_layer`` copies
        #: them out of the frame with ``.astype``).  Arena path without
        #: secondary compression only; ``None`` elsewhere.
        self._journal: "list[dict[str, np.ndarray | None]] | None" = (
            [] if self.arena and track_differences and secondary is None else None
        )
        #: indices the journal holds (a ``None`` layer counts its full size)
        self._journal_size = 0
        #: workers whose ``v_k`` was loaded from outside: the journal's
        #: premise (``v_k == M`` at ``prev(k)``) is not this tracker's doing
        #: until a dense scan or a bootstrap has made it so
        self._unsynced: "set[int]" = set()

    # ------------------------------------------------------------------
    def apply_update(self, update: "Mapping[str, SparseTensor] | Mapping[str, np.ndarray]") -> int:
        """``M ← M − g`` (Eq. 1).  Returns the new server timestamp."""
        if self.arena:
            # One fused op for same-layout dense arenas; COO scatter /
            # to_dense fallbacks otherwise — same arithmetic either way.
            self.M.add_payload(update, scale=-1.0)
            self.t += 1
            if self._journal is not None:
                self._journal_append(update)
            return self.t
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

    def model_difference(self, worker: int) -> "OrderedDict[str, SparseTensor]":
        """Compute, record, and return ``G_k`` for ``worker`` (Eq. 3/6).

        Side effects: ``v_k ← v_k + G`` and ``prev(k) ← t``.
        """
        if not self.track_differences:
            raise RuntimeError("model_difference() requires track_differences=True")
        vk = self.v[worker]
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        if self.arena:
            dirty = self._journaled_since(worker)
            if dirty is not None:
                for name in self.M:
                    out[name] = self._layer_difference(name, vk, dirty)
                self.prev[worker] = self.t
                return out
            # One fused subtraction for the whole difference, then per-layer
            # encode out of the scratch arena's views.
            diff = self._diff
            np.subtract(self.M.flat, vk.flat, out=diff.flat)
            for name in self.M:
                d = diff[name]
                if self.secondary is not None:
                    sent = self.secondary.select(d, self.workspace)
                    if sent is None:
                        sent = encode_mask(d, self.secondary.mask(d), self.workspace)
                    sent.add_into(vk[name])
                else:
                    sent = encode_best(d, self.workspace)
                out[name] = sent
            if self.secondary is None:
                vk.copy_(self.M)  # v_k == M (Eq. 3), one memcpy
                self._unsynced.discard(worker)
            self.prev[worker] = self.t
            return out
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

    def staleness(self, worker: int) -> int:
        """Updates applied at the server since this worker last synced."""
        return self.t - self.prev[worker]

    def mark_synced(self, worker: int) -> None:
        """``prev(k) ← t`` for a worker that just downloaded the whole
        model (vanilla ASGD's reply; no ``v_k`` to advance)."""
        self.prev[worker] = self.t

    # -- dirty-index journal -------------------------------------------
    def _journal_append(self, update: "Mapping[str, object]") -> None:
        """Record which indices ``update`` wrote, then enforce the bounds."""
        entry = {name: getattr(layer, "indices", None) for name, layer in update.items()}
        journal = self._journal
        journal.append(entry)
        self._journal_size += self._entry_size(entry)
        # Nobody is owed entries at or before min(prev); past the retention
        # bound the oldest go too and whoever is that stale gets the scan.
        unneeded = len(journal) - (self.t - min(self.prev))
        limit = int(self.M.size * _JOURNAL_MAX_FRACTION)
        drop = 0
        while drop < len(journal) and (drop < unneeded or self._journal_size > limit):
            self._journal_size -= self._entry_size(journal[drop])
            drop += 1
        del journal[:drop]

    def _entry_size(self, entry: "dict[str, np.ndarray | None]") -> int:
        return sum(
            self.M[name].size if idx is None else idx.size for name, idx in entry.items()
        )

    def _journal_reset(self) -> None:
        """Forget the journal: state changed other than through
        :meth:`apply_update`, so every worker's next reply is a dense scan
        (a loaded ``v_k`` need not equal ``M`` even at ``prev(k) == t`` — a
        checkpoint written under secondary compression carries a residual)
        and the journal serves it again once it reaches back to ``prev(k)``."""
        if self._journal is not None:
            self._journal.clear()
            self._journal_size = 0
            self._unsynced = set(range(len(self.v)))

    def _journaled_since(self, worker: int) -> "list[dict[str, np.ndarray | None]] | None":
        """The journal entries of updates ``prev(k)+1 … t``, or ``None`` when
        the journal is off, may not serve this worker yet, or no longer
        reaches back that far."""
        journal = self._journal
        behind = self.t - self.prev[worker]
        if journal is None or worker in self._unsynced or not 0 <= behind <= len(journal):
            return None
        return journal[len(journal) - behind :]

    def _layer_difference(
        self,
        name: str,
        vk: LayerArena,
        dirty: "list[dict[str, np.ndarray | None]]",
    ) -> "SparseTensor | BitmapTensor | DenseTensor":
        """``M − v_k`` of one layer from the indices ``dirty`` names, and
        ``v_k ← M`` there — bitwise what the dense scan returns.

        Everywhere else ``v_k == M`` already (Eq. 5 held at ``prev(k)``
        and nothing but the journaled updates has written ``M`` since).
        """
        m_layer = self.M[name]
        m_flat = m_layer.reshape(-1)
        v_flat = vk[name].reshape(-1)
        n = m_flat.size
        parts = [entry[name] for entry in dirty if name in entry]
        if any(p is None for p in parts) or sum(p.size for p in parts) > int(
            n * _JOURNAL_MAX_FRACTION
        ):
            return self._layer_scan(name, vk)
        idx = _sorted_union(parts, n)
        if idx.size and idx[0] < 0:  # hand-built payload with wrap-around indices
            return self._layer_scan(name, vk)
        idx, d = _advance_at(m_flat, v_flat, idx)
        # never DenseTensor: under the candidate limit nnz·8 < n·4
        return cheapest_format(n, idx.size)(idx, d, m_layer.shape)

    def _layer_scan(self, name: str, vk: LayerArena) -> "SparseTensor | BitmapTensor | DenseTensor":
        """The dense scan of one layer (the journal path's fallback)."""
        m_layer = self.M[name]
        sent = encode_best(np.subtract(m_layer, vk[name], out=self._diff[name]), self.workspace)
        np.copyto(vk[name], m_layer)
        return sent

    # ------------------------------------------------------------------
    def bootstrap_worker(self, worker: int) -> None:
        """Admit ``worker`` (growing state if it is new): ``v_k ← M_t``,
        ``prev(k) ← t``.

        The elastic-membership state transition (a late joiner downloads
        θ_t, so everything ever applied has by definition been shipped to
        it — ``v_k == M_t`` is exactly the Eq. 5 invariant at join time).
        Idempotent for existing workers: re-bootstrapping just refreshes
        their ``v_k`` to the current ``M``, which is what a reconnect
        after a full-model download means.
        """
        if worker < 0:
            raise ValueError(f"worker id must be >= 0, got {worker}")
        if worker >= self.num_workers:
            if self.track_differences:
                self.v.extend(
                    make_layer_buffers(self.shapes, self.arena, self.buffer_dtype)
                    for _ in range(worker + 1 - self.num_workers)
                )
            self.prev.extend([0] * (worker + 1 - self.num_workers))
            self.num_workers = worker + 1
            self._journal_reset()
        if self.track_differences:
            vk = self.v[worker]
            if self.arena:
                vk.copy_(self.M)
            else:
                for name, m_layer in self.M.items():
                    np.copyto(vk[name], m_layer)
            self._unsynced.discard(worker)
        self.prev[worker] = self.t

    def worker_model(self, theta0: Mapping[str, np.ndarray], worker: int) -> "Mapping[str, np.ndarray]":
        """Materialise the model worker ``k`` holds: θ_0 + v_k (Eq. 3 view).

        Without difference tracking (vanilla ASGD) the worker holds the
        full global model from its last download, which — under the strict
        request→reply cycle — is θ_t.
        """
        if not self.track_differences:
            return self.global_model(theta0)
        vk = self.v[worker]
        if (
            self.arena
            and isinstance(theta0, LayerArena)
            and theta0.same_layout(vk)
        ):
            return theta0.clone().add_(vk)
        return OrderedDict((name, theta0[name] + vk[name]) for name in self.M)

    # ------------------------------------------------------------------
    def global_model(self, theta0: Mapping[str, np.ndarray]) -> "Mapping[str, np.ndarray]":
        """Materialise θ_t = θ_0 + M_t (Eq. 2) — used for evaluation."""
        if (
            self.arena
            and isinstance(theta0, LayerArena)
            and theta0.same_layout(self.M)
        ):
            return theta0.clone().add_(self.M)  # one fused θ0 + M
        return OrderedDict((name, theta0[name] + self.M[name]) for name in self.M)

    def state_dict(self) -> "dict[str, np.ndarray]":
        """Snapshot M, every v_k, t, and prev(k) for checkpointing."""
        state: dict[str, np.ndarray] = {"t": np.array(self.t), "prev": np.array(self.prev)}
        for name, arr in self.M.items():
            state[f"M/{name}"] = arr.copy()
        for k, vk in enumerate(self.v):
            for name, arr in vk.items():
                state[f"v{k}/{name}"] = arr.copy()
        return state

    def load_state_dict(self, state: "Mapping[str, np.ndarray]") -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.t = int(state["t"])
        prev = [int(x) for x in np.asarray(state["prev"]).reshape(-1)]
        if len(prev) != self.num_workers:
            raise ValueError(
                f"checkpoint has {len(prev)} workers, tracker expects {self.num_workers}"
            )
        self.prev = prev
        for name, arr in self.M.items():
            np.copyto(arr, state[f"M/{name}"])
        for k, vk in enumerate(self.v):
            for name, arr in vk.items():
                np.copyto(arr, state[f"v{k}/{name}"])
        self._journal_reset()

    # ------------------------------------------------------------------
    def flat_state(self) -> "list[np.ndarray]":
        """``[M, v_0, …, v_{K-1}]``, each as one contiguous 1-D array.

        The checkpoint payload: in arena mode these are zero-copy views of
        the flat backing buffers (the caller copies if it needs isolation);
        the dict reference path concatenates per layer.  Layer order is
        ``self.shapes`` order, which both representations share.
        """
        return [_flatten_buffers(self.M)] + [_flatten_buffers(vk) for vk in self.v]

    def load_flat_state(self, buffers: "list[np.ndarray]") -> None:
        """Restore :meth:`flat_state` output (``M`` first, then each v_k).

        Grows the worker set if the checkpoint carries more v_k buffers
        than this tracker currently has (a checkpoint taken after elastic
        joins restores into a tracker built at the original size).
        """
        if not buffers:
            raise ValueError("flat state needs at least the M buffer")
        n_v = len(buffers) - 1
        if self.track_differences and n_v > len(self.v):
            self.bootstrap_worker(n_v - 1)  # grow v/prev to checkpoint size
        elif not self.track_differences and n_v != 0:
            raise ValueError("checkpoint has v_k buffers but tracking is off")
        elif self.track_differences and n_v < len(self.v):
            raise ValueError(
                f"checkpoint has {n_v} v_k buffers, tracker has {len(self.v)} workers"
            )
        _load_flat(self.M, buffers[0])
        for vk, buf in zip(self.v, buffers[1:]):
            _load_flat(vk, buf)
        self._journal_reset()

    def restore(self, t: int, prev: "list[int]", buffers: "list[np.ndarray]") -> None:
        """Restore a server checkpoint: :meth:`load_flat_state` plus the
        timestamps.  ``prev`` may be longer than the current worker set (a
        model-mode checkpoint carries no v_k buffers to grow it by)."""
        self.load_flat_state(buffers)
        self.t = int(t)
        self.prev = [int(x) for x in prev]
        self.num_workers = max(self.num_workers, len(self.prev))

    def server_state_bytes(self) -> int:
        """Memory held by M plus every v_k (the §5.6.2 accounting:
        ``NumOfWorkers × ParameterMemOfModel`` for the v's, + one M)."""
        m_bytes = sum(arr.nbytes for arr in self.M.values())
        v_bytes = sum(sum(arr.nbytes for arr in vk.values()) for vk in self.v)
        return m_bytes + v_bytes


def _sorted_union(parts: "list[np.ndarray]", n: int) -> np.ndarray:
    """Sorted, de-duplicated union of flat-index arrays into an ``n``-element
    layer, as intp.  Concatenate, sort as int32 (half the memory traffic of
    intp), drop adjacent repeats: 0.4 ms for 8 × 7 864 indices where
    ``np.unique`` takes 9–10 ms (NumPy 2.4)."""
    if not parts:
        return np.empty(0, dtype=np.intp)
    dtype = np.int32 if n <= _INT32_MAX else np.intp
    cand = np.concatenate(parts, dtype=dtype, casting="unsafe")
    cand.sort()
    keep = np.empty(cand.size, dtype=bool)
    keep[:1] = True
    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
    return cand[keep].astype(np.intp)


def _advance_at(
    m_flat: np.ndarray, v_flat: np.ndarray, idx: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``v[idx] ← M[idx]``; returns the indices where that changed ``v`` and
    the float32 differences there.  Updates that cancelled exactly leave a
    zero, which must not ship (the dense scan would not see it)."""
    m = m_flat[idx]
    d = m - v_flat[idx]
    v_flat[idx] = m
    if np.count_nonzero(d) != d.size:
        live = d != 0
        idx, d = idx[live], d[live]
    return idx, d.astype(VALUE_DTYPE, copy=False)


def _flatten_buffers(buffers: "LayerArena | Mapping[str, np.ndarray]") -> np.ndarray:
    """One contiguous 1-D view/copy of a layer buffer set (shapes order)."""
    if isinstance(buffers, LayerArena):
        return buffers.flat  # already one contiguous buffer: zero copy
    return np.concatenate([arr.reshape(-1) for arr in buffers.values()])


def _load_flat(buffers: "LayerArena | Mapping[str, np.ndarray]", flat: np.ndarray) -> None:
    """Scatter one contiguous 1-D array back into a layer buffer set."""
    if isinstance(buffers, LayerArena):
        if flat.size != buffers.flat.size:
            raise ValueError(
                f"flat buffer has {flat.size} elements, arena holds {buffers.flat.size}"
            )
        np.copyto(buffers.flat, flat)
        return
    offset = 0
    for arr in buffers.values():
        np.copyto(arr, flat[offset : offset + arr.size].reshape(arr.shape))
        offset += arr.size
    if offset != flat.size:
        raise ValueError(f"flat buffer has {flat.size} elements, layers hold {offset}")
