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

That invariant also says what ``v_k`` is without secondary compression:
``M`` as it stood at ``prev(k)``.  The tracker therefore keeps no
per-worker buffer there.  It keeps a bounded *journal* of recent updates —
the indices each one wrote and the values of ``M`` it overwrote — and
answers from it in O(staleness·k): ``v_k`` differs from ``M`` only at
indices an owed update wrote, and there it holds what the oldest of them
overwrote.  The ``v_k`` of a worker the journal is about to stop
covering, and one loaded from a checkpoint, is *held* as a materialised
buffer until that worker's next reply, which is the dense scan against it.
Secondary compression (Eq. 6) keeps per-worker buffers: there ``v_k`` also
carries the withheld residual, which no journal of ``M`` describes.

The paper's literal ``M + K·v_k`` state, always scanned, is
:class:`repro.core.reference.ReferenceTracker` — the parity oracle this
tracker's replies are bitwise equal to at equal dtype.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import Iterator, Mapping

import numpy as np

from ..compression.base import Sparsifier
from ..compression.coding import (
    VALUE_DTYPE,
    SparseTensor,
    cheapest_format,
    encode_best,
    encode_mask,
)
from .arena import LayerArena

__all__ = ["ModelDifferenceTracker"]

#: Candidate indices per layer, as a fraction of the layer's size, above
#: which the dense scan answers faster than the journal — and, applied to
#: the whole model, the number of indices the journal retains.  Measured
#: with the ``diff_reply_eq5_*`` kernel pairs (786 432-element float32
#: layer, 1 % updates); see docs/performance.md, "The Eq. 5 reply is
#: O(staleness·k)", for the sweep, and "Server state without ``v_k``" for
#: the value-carrying kernel, which meets the scan nearer 12 %.
_JOURNAL_MAX_FRACTION = 1 / 6
_INT32_MAX = 2**31 - 1

#: One journaled layer: the flat indices an update wrote (``None`` = the
#: whole layer) and the values of ``M`` there just before it wrote them.
_Written = tuple[np.ndarray | None, np.ndarray]


class ModelDifferenceTracker:
    """Server state for dual-way sparsification (M, per-worker v_k).

    ``M`` and every buffer the tracker keeps are
    :class:`~repro.core.arena.LayerArena` s of ``dtype`` (float32 unless
    overridden): applying an update is one fused op over the flat buffer
    — shortening the server's lock hold.  Without secondary compression
    the journal stands in for the K ``v_k`` buffers (module docstring)
    and the tracker holds no model-sized scratch.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        num_workers: int,
        secondary: Sparsifier | None = None,
        track_differences: bool = True,
        dtype: "np.dtype | type | str | None" = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.shapes = OrderedDict(shapes)
        self.num_workers = num_workers
        self.secondary = secondary
        self.track_differences = track_differences
        #: the state's dtype (``None`` ⇒ float32), for every buffer allocated
        self.dtype = dtype
        self.M = self._make_buffers()
        #: the journal: one ``{layer: (indices | None, M[indices] before)}``
        #: per applied update, for the ``len(journal)`` most recent ones
        #: (entry ``i`` is update ``t - len + 1 + i``), so it covers
        #: ``(t - len, t]`` and clearing it puts that floor at ``t``.  A
        #: layer the update skipped is absent.  The index arrays are
        #: *references* to the payload's own — safe because payload classes
        #: are immutable and their producers hand over memory they own
        #: (``topk_select`` allocates fresh indices, the codec's
        #: ``_decode_layer`` copies them out of the frame with ``.astype``).
        #: Without secondary compression only; ``None`` with it.
        self._journal: "list[dict[str, _Written]] | None" = (
            [] if track_differences and secondary is None else None
        )
        #: indices the journal holds (a whole-layer entry counts its size)
        self._journal_size = 0
        # Per-worker v_k buffers.  With a journal a worker's slot is None
        # (the journal stands in for it) unless its v_k is *held*; without
        # one every worker has a buffer, and vanilla ASGD — no difference
        # tracking — pays no per-worker server memory at all.
        self._buffers: "list[LayerArena | None]" = []
        if track_differences:
            self._buffers = [
                None if self._journal is not None else self._make_buffers()
                for _ in range(num_workers)
            ]
        # Reused scratch arena for M − v_k under secondary compression,
        # where v_k is live and must survive the scan (overwritten by every
        # reply, never escapes).  The journal path scans into buffers it
        # frees right after, and vanilla ASGD never scans.
        self._diff: "LayerArena | None" = (
            self._make_buffers() if track_differences and self._journal is None else None
        )
        #: server timestamp t — incremented once per applied update (Table 1)
        self.t = 0
        #: prev(k): server timestamp of worker k's last download (Table 1)
        self.prev = [0] * num_workers

    @property
    def v(self) -> "_WorkerStates":
        """``v[k]`` is :meth:`vk` ``(k)`` — the paper's notation."""
        return _WorkerStates(self)

    def vk(self, worker: int) -> LayerArena:
        """``v_k``: everything shipped to ``worker`` so far (Eq. 3/6b).

        The live buffer where the tracker keeps one; on the journal path,
        ``M`` rewound through the updates the worker is owed — an O(n)
        copy for checkpoints and inspection, never taken by an exchange.
        Read-only either way.
        """
        if not self.track_differences:
            raise RuntimeError("vk() requires track_differences=True")
        held = self._buffers[worker]
        if held is not None:
            return held
        owed = self._journaled_since(worker)
        vk = self.M.clone()
        for name in vk:
            _rewind(vk[name].reshape(-1), _layer_parts(owed, name))
        return vk

    # ------------------------------------------------------------------
    def apply_update(self, update: "Mapping[str, SparseTensor] | Mapping[str, np.ndarray]") -> int:
        """``M ← M − g`` (Eq. 1).  Returns the new server timestamp."""
        entry = None if self._journal is None else self._overwritten_by(update)
        # One fused op for same-layout dense arenas; COO scatter /
        # to_dense fallbacks otherwise — same arithmetic either way.
        self.M.add_payload(update, scale=-1.0)
        self.t += 1
        if entry is not None:
            self._journal_append(entry)
        return self.t

    def model_difference(self, worker: int) -> "OrderedDict[str, SparseTensor]":
        """Compute, record, and return ``G_k`` for ``worker`` (Eq. 3/6).

        Side effects: ``v_k ← v_k + G`` and ``prev(k) ← t``.
        """
        if not self.track_differences:
            raise RuntimeError("model_difference() requires track_differences=True")
        vk = self._buffers[worker]
        out: OrderedDict[str, SparseTensor] = OrderedDict()
        if vk is None:
            dirty = self._journaled_since(worker)
            for name in self.M:
                out[name] = self._layer_difference(name, dirty)
            self.prev[worker] = self.t
            return out
        # One fused subtraction for the whole difference, then per-layer
        # encode out of the scratch arena's views.  A held v_k is dropped
        # after this reply, so its own buffer takes the difference.
        diff = vk if self._journal is not None else self._diff
        np.subtract(self.M.flat, vk.flat, out=diff.flat)
        for name in self.M:
            d = diff[name]
            if self.secondary is not None:
                sent = self.secondary.select(d)
                if sent is None:
                    sent = encode_mask(d, self.secondary.mask(d))
                # v_k advances only by what was actually sent (Eq. 6b)
                sent.add_into(vk[name])
            else:
                sent = encode_best(d)
            out[name] = sent
        if self._journal is not None:
            self._buffers[worker] = None  # v_k == M (Eq. 3): the journal covers it from t
        self.prev[worker] = self.t
        return out

    def staleness(self, worker: int) -> int:
        """Updates applied at the server since this worker last synced."""
        return self.t - self.prev[worker]

    def mark_synced(self, worker: int) -> None:
        """``prev(k) ← t`` for a worker that just downloaded the whole
        model (vanilla ASGD's reply; no ``v_k`` to advance)."""
        self.prev[worker] = self.t

    # -- the journal ---------------------------------------------------
    def _overwritten_by(self, update: "Mapping[str, object]") -> "dict[str, _Written]":
        """Where ``update`` is about to write ``M``, and what it overwrites."""
        entry = {}
        for name, layer in update.items():
            idx = getattr(layer, "indices", None)
            m_flat = self.M[name].reshape(-1)
            entry[name] = (idx, m_flat.copy() if idx is None else m_flat[idx])
        return entry

    def _journal_append(self, entry: "dict[str, _Written]") -> None:
        """Journal one applied update, then enforce the bounds.

        Nobody the journal covers is owed entries at or before their
        ``min(prev)``; past the retention bound the oldest go too, and a
        worker still owed one of those has its ``v_k`` materialised first.
        """
        journal = self._journal
        journal.append(entry)
        self._journal_size += _entry_size(entry)
        covered = [p for p, held in zip(self.prev, self._buffers) if held is None]
        unneeded = len(journal) - (self.t - min(covered, default=self.t))
        limit = int(self.M.size * _JOURNAL_MAX_FRACTION)
        drop = 0
        while drop < len(journal) and (drop < unneeded or self._journal_size > limit):
            self._journal_size -= _entry_size(journal[drop])
            drop += 1
        if drop > unneeded:
            floor = self.t - len(journal) + drop
            for k, held in enumerate(self._buffers):
                if held is None and self.prev[k] < floor:
                    self._buffers[k] = self.vk(k)
        del journal[:drop]

    def _journal_reset(self) -> None:
        """Forget the journal: ``M`` was loaded, not updated, so no entry
        describes it (every ``v_k`` was loaded with it and is held)."""
        if self._journal is not None:
            self._journal.clear()
            self._journal_size = 0

    def _journaled_since(self, worker: int) -> "list[dict[str, _Written]] | None":
        """The journal entries of updates ``prev(k)+1 … t``, or ``None`` when
        the journal is off or this worker's ``v_k`` is held."""
        journal = self._journal
        if journal is None or self._buffers[worker] is not None:
            return None
        behind = self.t - self.prev[worker]
        if not 0 <= behind <= len(journal):
            raise RuntimeError(f"journal does not reach back to prev({worker})")
        return journal[len(journal) - behind :]

    def _layer_difference(
        self, name: str, dirty: "list[dict[str, _Written]]"
    ) -> "SparseTensor | BitmapTensor | DenseTensor":
        """``M − v_k`` of one layer from the updates ``dirty`` journals —
        bitwise what the dense scan against ``v_k`` returns.

        Only indices those updates wrote can differ (Eq. 5 held at
        ``prev(k)``), and there ``v_k`` is what the oldest of them
        overwrote (:func:`_oldest_writes`).
        """
        m_layer = self.M[name]
        m_flat = m_layer.reshape(-1)
        n = m_flat.size
        parts = _layer_parts(dirty, name)
        if (
            n > _INT32_MAX
            or any(idx is None for idx, _ in parts)
            or sum(pre.size for _, pre in parts) > int(n * _JOURNAL_MAX_FRACTION)
        ):
            return self._layer_scan(name, self._rewound(name, parts))
        idx, vk = _oldest_writes(parts)
        if idx.size and idx[0] < 0:  # hand-built payload with wrap-around indices
            return self._layer_scan(name, self._rewound(name, parts))
        idx, d = _difference_at(m_flat, idx, vk)
        # never DenseTensor: under the candidate limit nnz·8 < n·4
        return cheapest_format(n, idx.size)(idx, d, m_layer.shape)

    def _rewound(self, name: str, parts: "list[_Written]") -> np.ndarray:
        """``v_k`` of one layer, in a fresh per-layer temporary: ``M``
        rewound through ``parts``."""
        v_layer = self.M[name].copy()
        _rewind(v_layer.reshape(-1), parts)
        return v_layer

    def _layer_scan(self, name: str, v_layer: np.ndarray) -> "SparseTensor | BitmapTensor | DenseTensor":
        """The dense scan of one layer (the journal path's fallback); the
        difference overwrites ``v_layer``, a temporary of :meth:`_rewound`."""
        return encode_best(np.subtract(self.M[name], v_layer, out=v_layer))

    # ------------------------------------------------------------------
    def _make_buffers(self) -> LayerArena:
        return LayerArena(self.shapes, dtype=np.float32 if self.dtype is None else self.dtype)

    def _loaded_buffer(self, flat: np.ndarray) -> LayerArena:
        """A ``v_k`` copied from flat checkpoint state; on the journal path
        it is *held* until that worker's next reply."""
        vk = self._make_buffers()
        _load_flat(vk, flat)
        return vk

    def bootstrap_worker(self, worker: int) -> None:
        """Admit ``worker`` (growing state if it is new): ``v_k ← M_t``,
        ``prev(k) ← t``.

        The elastic-membership state transition (a late joiner downloads
        θ_t, so everything ever applied has by definition been shipped to
        it — ``v_k == M_t`` is exactly the Eq. 5 invariant at join time).
        Idempotent for existing workers: re-bootstrapping just refreshes
        their ``v_k`` to the current ``M``, which is what a reconnect
        after a full-model download means.  With a journal that is
        ``prev(k) ← t`` alone: nothing is allocated or copied, and no other
        worker's journal coverage changes.  Ids skipped over by the growth
        were never bootstrapped: ``v_k = 0`` at ``prev(k) = 0``, held.
        """
        if worker < 0:
            raise ValueError(f"worker id must be >= 0, got {worker}")
        if worker >= self.num_workers:
            added = worker + 1 - self.num_workers
            if self.track_differences:
                self._buffers.extend(self._make_buffers() for _ in range(added - 1))
                self._buffers.append(None if self._journal is not None else self._make_buffers())
            self.prev.extend([0] * added)
            self.num_workers = worker + 1
        if self.track_differences:
            vk = self._buffers[worker]
            if self._journal is not None:
                self._buffers[worker] = None
            else:
                for name, m_layer in self.M.items():
                    np.copyto(vk[name], m_layer)
        self.prev[worker] = self.t

    def worker_model(self, theta0: Mapping[str, np.ndarray], worker: int) -> "Mapping[str, np.ndarray]":
        """Materialise the model worker ``k`` holds: θ_0 + v_k (Eq. 3 view).

        Without difference tracking (vanilla ASGD) the worker holds the
        full global model from its last download, which — under the strict
        request→reply cycle — is θ_t.
        """
        if not self.track_differences:
            return self.global_model(theta0)
        vk = self.vk(worker)
        if isinstance(theta0, LayerArena) and theta0.same_layout(vk):
            return theta0.clone().add_(vk)
        return OrderedDict((name, theta0[name] + vk[name]) for name in self.M)

    # ------------------------------------------------------------------
    def global_model(self, theta0: Mapping[str, np.ndarray]) -> "Mapping[str, np.ndarray]":
        """Materialise θ_t = θ_0 + M_t (Eq. 2) — used for evaluation."""
        if isinstance(theta0, LayerArena) and theta0.same_layout(self.M):
            # One pass into a fresh arena: the same IEEE sum as
            # ``theta0.clone().add_(M)`` without the clone's copy.  Fresh,
            # not reused — a reply may still be in flight when the next
            # one is built.
            flat = np.add(theta0.flat, self.M.flat, out=np.empty_like(theta0.flat))
            return LayerArena(theta0.shapes, dtype=flat.dtype, _flat=flat)
        return OrderedDict((name, theta0[name] + self.M[name]) for name in self.M)

    # ------------------------------------------------------------------
    def flat_state(self) -> "Iterator[np.ndarray]":
        """``M, v_0, …, v_{K-1}``, each as one contiguous 1-D array.

        The checkpoint payload, yielded one at a time so the journal path
        materialises one ``v_k`` at a time.  Each is a zero-copy view of an
        arena's flat backing (the caller copies if it needs isolation), in
        ``self.shapes`` layer order.
        """
        yield self.M.flat
        for vk in self.v:
            yield vk.flat

    def load_flat_state(self, buffers: "list[np.ndarray]") -> None:
        """Restore :meth:`flat_state` output (``M`` first, then each v_k).

        Grows the worker set if the checkpoint carries more v_k buffers
        than this tracker currently has (a checkpoint taken after elastic
        joins restores into a tracker built at the original size).  On the
        journal path every loaded ``v_k`` is held until that worker's next
        reply: a loaded ``v_k`` need not equal ``M`` even at
        ``prev(k) == t`` (a checkpoint written under secondary compression
        carries a residual).  Buffers of another dtype than the tracker's
        are refused before anything is touched: loading them would round
        the state silently.
        """
        if not buffers:
            raise ValueError("flat state needs at least the M buffer")
        held = next(iter(self.M.values())).dtype
        for buf in buffers:
            if buf.dtype != held:
                raise ValueError(
                    f"checkpoint state is {buf.dtype}, the tracker holds {held}"
                )
        n_v = len(buffers) - 1
        if self.track_differences and n_v > len(self._buffers):
            self.bootstrap_worker(n_v - 1)  # grow v/prev to checkpoint size
        elif not self.track_differences and n_v != 0:
            raise ValueError("checkpoint has v_k buffers but tracking is off")
        elif self.track_differences and n_v < len(self._buffers):
            raise ValueError(
                f"checkpoint has {n_v} v_k buffers, tracker has {len(self._buffers)} workers"
            )
        _load_flat(self.M, buffers[0])
        for k, buf in enumerate(buffers[1:]):
            self._buffers[k] = self._loaded_buffer(buf)
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
        """Memory the tracker holds: M, every buffer it keeps and the
        journal.  Under secondary compression that is the §5.6.2
        accounting, ``M`` + ``NumOfWorkers × ParameterMemOfModel``;
        on the journal path, ``M`` + journal + held ``v_k`` only."""
        total = sum(arr.nbytes for arr in self.M.values())
        for vk in self._buffers:
            if vk is not None:
                total += sum(arr.nbytes for arr in vk.values())
        for entry in self._journal or ():
            for idx, pre in entry.values():
                total += pre.nbytes + (0 if idx is None else idx.nbytes)
        return total


class _WorkerStates(Sequence):
    """``tracker.v``: each worker's ``v_k`` through :meth:`ModelDifferenceTracker.vk`."""

    __slots__ = ("_tracker",)

    def __init__(self, tracker: ModelDifferenceTracker) -> None:
        self._tracker = tracker

    def __getitem__(self, worker: int) -> LayerArena:
        return self._tracker.vk(worker)

    def __len__(self) -> int:
        return len(self._tracker._buffers)

    def __iter__(self) -> "Iterator[LayerArena]":
        return (self._tracker.vk(k) for k in range(len(self)))


def _layer_parts(entries: "list[dict[str, _Written]]", name: str) -> "list[_Written]":
    """What each of ``entries`` wrote to layer ``name``, oldest first."""
    return [entry[name] for entry in entries if name in entry]


def _entry_size(entry: "dict[str, _Written]") -> int:
    return sum(pre.size for _, pre in entry.values())


def _rewind(flat: np.ndarray, parts: "list[_Written]") -> None:
    """Write each update's pre-values into ``flat``, newest first, so every
    index one of them wrote ends at the value the *oldest* overwrote."""
    for idx, pre in reversed(parts):
        flat[slice(None) if idx is None else idx] = pre


def _oldest_writes(parts: "list[_Written]") -> "tuple[np.ndarray, np.ndarray]":
    """The sorted union of the indices ``parts`` wrote (intp) and, at each,
    the value the oldest of them overwrote.

    One sort of int64 keys ``index << 32 | position``, positions counted
    through the parts oldest first, so each index's run starts at its
    oldest write; drop the rest of every run, then gather the pre-values
    from their concatenation.  Only arrays of the candidates' size are
    touched — nothing of the layer's size is written, which is what a
    scatter into a layer-sized scratch would cost cold (docs/performance.md,
    "Server state without ``v_k``").  Needs ``n`` below 2**31.
    """
    if not parts:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=VALUE_DTYPE)
    total = sum(pre.size for _, pre in parts)
    keys = np.concatenate([idx for idx, _ in parts], dtype=np.int64, casting="unsafe")
    keys <<= 32
    keys |= np.arange(total, dtype=np.int64)
    keys.sort()
    index = keys >> 32
    first = np.empty(total, dtype=bool)
    first[:1] = True
    np.not_equal(index[1:], index[:-1], out=first[1:])
    pre = np.concatenate([pre for _, pre in parts])
    return index[first].astype(np.intp, copy=False), pre[keys[first] & 0xFFFFFFFF]


def _difference_at(
    m_flat: np.ndarray, idx: np.ndarray, vk: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``M[idx] − v_k``: the indices where that is nonzero and the float32
    differences there.  Updates that cancelled exactly leave a zero, which
    must not ship (the dense scan would not see it)."""
    d = m_flat[idx] - vk
    if np.count_nonzero(d) != d.size:
        live = d != 0
        idx, d = idx[live], d[live]
    return idx, d.astype(VALUE_DTYPE, copy=False)


def _load_flat(buffers: "Mapping[str, np.ndarray]", flat: np.ndarray) -> None:
    """Scatter one contiguous 1-D array back into a layer buffer set."""
    held = sum(arr.size for arr in buffers.values())
    if held != flat.size:
        raise ValueError(f"flat buffer has {flat.size} elements, layers hold {held}")
    offset = 0
    for arr in buffers.values():
        np.copyto(arr, flat[offset : offset + arr.size].reshape(arr.shape))
        offset += arr.size
