"""Layer→shard partition map — the state-splitting side of a sharded PS.

A sharded parameter server divides the model's layers across N shards so
each shard owns a disjoint slice of ``M``/``v_k`` state behind its own
lock.  The split must be *whole layers* (a layer's sparse encoding and
secondary compression are per-layer, Eq. 6), deterministic (every process
of a run must agree on the assignment without negotiation), and balanced
(the largest shard bounds the longest lock hold).

:class:`PartitionMap` implements the classic greedy multiway number
partitioning: layers are placed largest-first into the currently
lightest shard.  That yields the standard LPT bound — no shard exceeds
``total_bytes / num_shards + max_layer_bytes`` — which the property tests
pin (``tests/properties/test_prop_partition.py``).

Within a shard, layers keep their *original* model order, so per-shard
sub-arenas (:class:`~repro.core.arena.LayerArena` over the shard's
shapes) lay out and reassemble deterministically: splitting a payload by
shard and merging the parts back is the identity on both keys and order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

__all__ = ["PartitionMap"]


class PartitionMap:
    """Deterministic greedy assignment of whole layers to shards.

    ``num_shards`` is clamped to the number of layers so no shard is ever
    empty — a shard with no state would still cost a lock acquisition per
    update while protecting nothing.
    """

    __slots__ = ("shapes", "num_shards", "itemsize", "_shard_of", "_layers", "_bytes")

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        num_shards: int,
        itemsize: int = 4,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not shapes:
            raise ValueError("cannot partition an empty layer map")
        if itemsize < 1:
            raise ValueError("itemsize must be >= 1")
        self.shapes: "OrderedDict[str, tuple[int, ...]]" = OrderedDict(
            (name, tuple(shape)) for name, shape in shapes.items()
        )
        self.itemsize = int(itemsize)
        self.num_shards = min(int(num_shards), len(self.shapes))

        sizes = {
            name: int(np.prod(shape, dtype=np.int64)) * self.itemsize
            for name, shape in self.shapes.items()
        }
        # Largest-first greedy (LPT): stable order index breaks byte ties,
        # lowest shard id breaks load ties — fully deterministic.
        order = {name: i for i, name in enumerate(self.shapes)}
        ranked = sorted(self.shapes, key=lambda n: (-sizes[n], order[n]))
        loads = [0] * self.num_shards
        self._shard_of: "dict[str, int]" = {}
        for name in ranked:
            shard = min(range(self.num_shards), key=lambda s: (loads[s], s))
            self._shard_of[name] = shard
            loads[shard] += sizes[name]
        self._bytes = tuple(loads)
        # Per-shard layer lists in ORIGINAL model order (sub-arena layout
        # and payload reassembly both key off this).
        grouped: "list[list[str]]" = [[] for _ in range(self.num_shards)]
        for name in self.shapes:
            grouped[self._shard_of[name]].append(name)
        self._layers = tuple(tuple(names) for names in grouped)

    # ------------------------------------------------------------------
    def shard_of(self, name: str) -> int:
        """The shard owning layer ``name``."""
        return self._shard_of[name]

    def layers(self, shard: int) -> "tuple[str, ...]":
        """Layer names owned by ``shard``, in original model order."""
        return self._layers[shard]

    def shard_bytes(self, shard: int) -> int:
        """Greedy load of ``shard`` at :attr:`itemsize` bytes per element."""
        return self._bytes[shard]

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes)

    @property
    def max_layer_bytes(self) -> int:
        return max(
            int(np.prod(shape, dtype=np.int64)) * self.itemsize
            for shape in self.shapes.values()
        )

    # ------------------------------------------------------------------
    def split(self, payload: "Mapping[str, object]") -> "list[OrderedDict[str, object]]":
        """Fan a whole-model payload into per-shard sub-payloads.

        Layers absent from ``payload`` are simply absent from their
        shard's part (sparse upstream payloads may skip empty layers).
        """
        parts: "list[OrderedDict[str, object]]" = [
            OrderedDict() for _ in range(self.num_shards)
        ]
        for name, layer in payload.items():
            parts[self._shard_of[name]][name] = layer
        return parts

    def merge(self, parts: "Sequence[Mapping[str, object]]") -> "OrderedDict[str, object]":
        """Reassemble per-shard payloads into original model order.

        Inverse of :meth:`split`: ``merge(split(p))`` preserves keys,
        order, and the layer objects themselves.
        """
        if len(parts) != self.num_shards:
            raise ValueError(f"expected {self.num_shards} parts, got {len(parts)}")
        out: "OrderedDict[str, object]" = OrderedDict()
        for name in self.shapes:
            part = parts[self._shard_of[name]]
            if name in part:
                out[name] = part[name]
        return out

    def __repr__(self) -> str:
        return (
            f"PartitionMap({len(self.shapes)} layers -> {self.num_shards} shards, "
            f"loads={list(self._bytes)})"
        )
