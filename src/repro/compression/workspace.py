"""Reusable scratch buffers for the hot compression kernels.

Every DGS iteration runs, per layer: ``|u|`` → exact top-k select →
COO encode.  The reference kernels allocate their ``|u|`` magnitude
buffer, boolean mask and index arrays fresh on every call — at 1 M
parameters that is several MB of allocator traffic per iteration per
worker, paid again by the server for every model difference.

:class:`KernelWorkspace` is a small keyed pool of reusable buffers the
kernels draw their *transient* scratch from.  Kernels that accept a
``workspace=`` reuse buffers instead of allocating; passing ``None``
(the default) reproduces the historical allocate-per-call behaviour
bit-for-bit.

Lifetime / ownership rules (see ``docs/performance.md``):

* A workspace is **per-thread state**: :meth:`KernelWorkspace.current`
  hands each thread its own, and the strategies and the tracker look it up
  at call time rather than holding one each.  Everything that runs on
  one thread shares one pool — the simulator's K workers and its server
  draw from a single scratch sized by the largest layer, and a thread
  that drives a server directly keeps its own (the server's handling,
  done on that thread under the lock, uses it too).  Never hand one to
  another thread.
* A buffer returned by :meth:`scratch` — and any kernel *output that
  aliases workspace memory*, such as the mask from
  ``topk_mask(..., workspace=ws)`` — is valid only until the next kernel
  call on the same workspace.  Consume it before selecting the next
  layer.  Kernel outputs that must outlive the call (``SparseTensor``
  values/indices) are always freshly gathered, never aliased.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["KernelWorkspace"]


_per_thread = threading.local()


class KernelWorkspace:
    """Keyed pool of reusable 1-D scratch buffers for the hot kernels."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: "dict[tuple[str, np.dtype], np.ndarray]" = {}

    @classmethod
    def current(cls) -> "KernelWorkspace":
        """The calling thread's workspace, created on its first use and
        freed with the thread."""
        ws = getattr(_per_thread, "workspace", None)
        if ws is None:
            ws = _per_thread.workspace = cls()
        return ws

    def scratch(self, tag: str, size: int, dtype: "np.dtype | type | str") -> np.ndarray:
        """A reusable uninitialised buffer of ``size`` elements.

        One backing buffer per ``(tag, dtype)``, grown geometrically to the
        largest size ever requested (so per-layer calls of varying size —
        different layers, varying nnz — reuse one allocation); the returned
        view's contents are whatever the previous use left behind — callers
        must overwrite before reading.
        """
        key = (tag, np.dtype(dtype))
        n = int(size)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            capacity = n if buf is None else max(n, 2 * buf.size)
            buf = np.empty(capacity, dtype=key[1])
            self._buffers[key] = buf
        return buf[:n]

    def nbytes(self) -> int:
        """Resident scratch memory (for the §5.6.2-style accounting)."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()

    def __repr__(self) -> str:
        return f"KernelWorkspace({len(self._buffers)} buffers, {self.nbytes()} bytes)"
