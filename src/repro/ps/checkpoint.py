"""Server checkpoints: one contiguous write/read of the flat state.

File format (little-endian)::

    magic   b"DGSC"
    u32     header length in bytes
    header  JSON (utf-8): {"version", "num_shards", "shards": [
                {"t", "prev", "num_workers", "updates", "dtype",
                 "buffer_sizes"}  # element counts: [M, v_0, …]
            ]}
    body    the buffers back-to-back, raw array bytes, in header order

The body is exactly the concatenation of each shard's
:meth:`~repro.core.tracker.ModelDifferenceTracker.flat_state` buffers —
these *are* the arenas' flat backing vectors, so a checkpoint is a
handful of contiguous ``tobytes()``/``frombuffer`` calls, not a per-layer
walk.  Snapshots are taken under the server/shard locks
(:meth:`~repro.ps.server.ParameterServer.checkpoint_state` copies out);
file I/O happens outside any lock.  Writes go through a same-directory
temp file and ``os.replace`` so a crash mid-write never leaves a torn
checkpoint behind.

``updates`` (per-worker handled-update counts) is what a restoring
trainer fast-forwards its data streams by, so the continued run consumes
exactly the batches the original run would have (the bitwise
continuation property pinned in ``tests/ps/test_checkpoint.py``).
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["CHECKPOINT_MAGIC", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"DGSC"
_HEADER_LEN_BYTES = 4  # u32 little-endian (int.to_bytes, not struct:
# wire framing — and the struct module — stays inside repro/comm, COM001)
_FORMAT_VERSION = 1


def _shard_states(server) -> "list[dict[str, object]]":
    """Normalise plain and sharded servers to a list of shard snapshots."""
    state = server.checkpoint_state()
    return state["shards"] if "shards" in state else [state]


def save_checkpoint(server, path: "str | os.PathLike") -> "dict[str, object]":
    """Write ``server``'s full state to ``path``; returns the header dict.

    Works for both :class:`~repro.ps.server.ParameterServer` and
    :class:`~repro.ps.sharded.ShardedParameterServer` (one header entry
    per shard).  Atomic: the file appears complete or not at all.
    """
    shards = _shard_states(server)
    header = {
        "version": _FORMAT_VERSION,
        "num_shards": len(shards),
        "shards": [
            {
                "t": s["t"],
                "prev": s["prev"],
                "num_workers": s["num_workers"],
                "updates": {str(w): c for w, c in s["updates"].items()},
                "dtype": str(s["buffers"][0].dtype),
                "buffer_sizes": [int(b.size) for b in s["buffers"]],
            }
            for s in shards
        ],
    }
    raw_header = json.dumps(header).encode("utf-8")
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(raw_header).to_bytes(_HEADER_LEN_BYTES, "little"))
        f.write(raw_header)
        for s in shards:
            for buf in s["buffers"]:
                f.write(np.ascontiguousarray(buf).tobytes())
    os.replace(tmp, path)
    return header


def load_checkpoint(server, path: "str | os.PathLike") -> "dict[str, object]":
    """Restore ``path`` into ``server``; returns the checkpoint header.

    The server must have been built over the same model and hold the
    checkpoint's dtype (element counts and dtype are validated shard by
    shard before any state is touched; a mismatch raises ``ValueError``).
    The header's per-shard ``updates`` maps (worker id → handled updates)
    are what trainers fast-forward by; shard 0's map is authoritative
    (every shard sees every update).
    """
    path = os.fspath(path)
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        header_len = int.from_bytes(f.read(_HEADER_LEN_BYTES), "little")
        header = json.loads(f.read(header_len).decode("utf-8"))
        if header["version"] != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: checkpoint version {header['version']}, "
                f"reader supports {_FORMAT_VERSION}"
            )
        states: "list[dict[str, object]]" = []
        for shard_header in header["shards"]:
            dtype = np.dtype(shard_header["dtype"])
            buffers = []
            for size in shard_header["buffer_sizes"]:
                raw = f.read(size * dtype.itemsize)
                if len(raw) != size * dtype.itemsize:
                    raise ValueError(f"{path}: truncated checkpoint body")
                buffers.append(np.frombuffer(raw, dtype=dtype))
            states.append(
                {
                    "t": shard_header["t"],
                    "prev": shard_header["prev"],
                    "num_workers": shard_header["num_workers"],
                    "buffers": buffers,
                }
            )
    num_shards = getattr(server, "num_shards", 1)
    if num_shards != header["num_shards"]:
        raise ValueError(
            f"{path}: checkpoint has {header['num_shards']} shard(s), "
            f"server has {num_shards}"
        )
    if hasattr(server, "shards"):
        server.restore_state({"shards": states})
    else:
        server.restore_state(states[0])
    return header
