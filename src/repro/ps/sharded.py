"""Sharded parameter server: partitioned state behind per-shard locks.

The single-lock :class:`~repro.ps.server.ParameterServer` serialises
*every* DGS update — gradient apply, model-difference tracking, secondary
compression — behind one mutex.  This module splits that critical section
N ways:

* a :class:`~repro.core.partition.PartitionMap` assigns whole layers to
  shards greedily by byte size (whole layers, because sparse encodings
  and secondary compression are per-layer, Eq. 6);
* each :class:`ParameterShard` is a full :class:`ParameterServer` over
  its layer subset — its own lock, its own sub-arena, its own per-worker
  ``v_k`` slices (or journal) — so the Eq. 5 ASGD-equivalence invariant holds *per
  shard* and, because the shards' layer sets are disjoint and exhaustive,
  composes bitwise into the global invariant;
* :class:`ShardedParameterServer` is a lock-free front-end that fans one
  gradient message into per-shard sub-messages and reassembles the
  per-shard replies into a single downstream message in original layer
  order.

``num_shards=1`` collapses to today's path: :func:`repro.exec.common.
build_server` constructs a plain :class:`ParameterServer` then, so the
front-end never sits between a single lock and its callers.

Concurrency contract: the front-end owns **no** lock.  Shard locks are
acquired strictly one at a time (fan-out is sequential per request), so
no lock nests inside another and the LCK004 lock graph stays a set of
isolated shard nodes.  ``ParameterShard`` does not assign ``self._lock``
in its own ``__init__`` (it inherits the parent's), so static discovery
comes from its ``LOCK_CLASS_REGISTRY`` entry
(:mod:`repro.analysis.concurrency.registry`).
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from ..compression.stats import CompressionStats
from ..core.partition import PartitionMap
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .messages import DiffMessage, GradientMessage, ModelMessage
from .server import ParameterServer, summarize_staleness

__all__ = ["ParameterShard", "ShardedParameterServer"]


class ParameterShard(ParameterServer):
    """One partition of a sharded server: a full PS over a layer subset.

    Everything — lock, tracker, meters, metrics — is inherited; the only
    specialisation is carrying the shard id (which the parent stamps onto
    its telemetry labels and trace lanes) and a shard-scoped default name
    for lock-registry enrollment.
    """

    def __init__(
        self,
        theta0: "Mapping[str, np.ndarray]",
        num_workers: int,
        shard_id: int,
        **kwargs: object,
    ) -> None:
        super().__init__(theta0, num_workers, shard=shard_id, **kwargs)

    def register_lock(self, registry, name: str | None = None) -> None:
        super().register_lock(registry, name or f"ps.shard{self.shard}")


class _MergedMeter:
    """Read-only ``.avg`` view over the shards' staleness meters.

    Every update fans to every shard, so each shard's meter holds exactly
    one observation per applied update and the mean of the shard means is
    the mean over all observations.
    """

    __slots__ = ("_meters",)

    def __init__(self, meters) -> None:
        self._meters = tuple(meters)

    @property
    def avg(self) -> float:
        return float(np.mean([m.avg for m in self._meters]))


class _MergedMetrics:
    """Read-only ``.snapshot()`` view concatenating the shards' registries.

    Series carry a ``shard`` label (stamped by the shard's own emit path),
    so concatenation cannot collide and downstream tooling can both slice
    per shard and aggregate across shards.
    """

    __slots__ = ("_shards",)

    def __init__(self, shards) -> None:
        self._shards = tuple(shards)

    def snapshot(self) -> "list[dict[str, object]]":
        return [rec for shard in self._shards for rec in shard.metrics.snapshot()]


class ShardedParameterServer:
    """Lock-free front-end fanning updates across :class:`ParameterShard` s.

    Presents the same surface the execution backends consume from a plain
    :class:`ParameterServer` (``handle`` / ``stats`` / ``staleness_summary``
    / ``metrics.snapshot`` / ``timestamp`` / ``global_model`` /
    ``server_state_bytes`` / ``register_lock``), so trainers are agnostic
    to sharding.

    Accounting semantics (see docs/execution.md): per-shard observations
    are *summed* — merged per-worker staleness counts are ``updates ×
    num_shards`` while means/percentiles are unchanged, and
    ``server_state_bytes`` sums the shards' disjoint states.
    """

    def __init__(
        self,
        theta0: "Mapping[str, np.ndarray]",
        num_workers: int,
        num_shards: int,
        downstream: str = "difference",
        **kwargs: object,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        itemsize = next(iter(theta0.values())).itemsize
        self.partition = PartitionMap(
            {k: v.shape for k, v in theta0.items()}, num_shards, itemsize=itemsize
        )
        self.num_shards = self.partition.num_shards
        self.downstream = downstream
        self.shards = [
            ParameterShard(
                dict((k, theta0[k]) for k in self.partition.layers(s)),
                num_workers,
                s,
                downstream=downstream,
                **kwargs,
            )
            for s in range(self.num_shards)
        ]
        #: byte-accounting sink recorded into by the channel layer — one
        #: per run, owned by the front-end (the shards' own stats objects
        #: stay untouched: the wire carries whole frames, not shard parts).
        self.stats = CompressionStats()
        self.staleness_meter = _MergedMeter([s.staleness_meter for s in self.shards])
        self.metrics = _MergedMetrics(self.shards)

    # ------------------------------------------------------------------
    def handle(self, msg: GradientMessage) -> "DiffMessage | ModelMessage":
        """Fan one upstream message across the shards, reassemble one reply.

        Shard locks are taken strictly one at a time — never nested — so
        the front-end adds no lock-ordering constraints.
        """
        t_start = time.perf_counter()
        parts = self.partition.split(msg.payload)
        replies = [
            shard.handle(GradientMessage(msg.worker_id, parts[s], msg.local_iteration))
            for s, shard in enumerate(self.shards)
        ]
        payload = self.partition.merge([r.payload for r in replies])
        # Per-shard timestamps advance in lockstep per request but may
        # interleave differently across concurrent workers; report the
        # most advanced view, matching the unsharded "state after my
        # update" semantics.
        t = max(r.server_timestamp for r in replies)
        staleness = max(r.staleness for r in replies)
        if self.downstream == "difference":
            reply: DiffMessage | ModelMessage = DiffMessage(
                msg.worker_id, payload, t, staleness
            )
        else:
            reply = ModelMessage(msg.worker_id, payload, t, staleness)

        tracer = current_tracer()
        if tracer.enabled:
            # Emitted after every shard lock is released (same rule as the
            # per-shard spans); covers split + N handles + merge.
            tracer.add_span(
                obs_names.SERVER_FANOUT,
                t_start,
                time.perf_counter(),
                cat="server",
                domain="wall",
                args={"worker": msg.worker_id, "shards": self.num_shards},
            )
        return reply

    def handle_shard(self, shard_id: int, msg: GradientMessage) -> "DiffMessage | ModelMessage":
        """Route a shard-addressed message straight to one shard.

        A shard-addressed frame (its header's shard id, see
        :mod:`repro.comm.frames`) is dispatched here without touching the
        other shards.
        """
        return self.shards[shard_id].handle(msg)

    # ------------------------------------------------------------------
    def bootstrap_worker(self, worker_id: int) -> ModelMessage:
        """Admit a worker on every shard (locks taken one at a time, never
        nested) and reassemble the full-model join reply."""
        replies = [shard.bootstrap_worker(worker_id) for shard in self.shards]
        payload = self.partition.merge([r.payload for r in replies])
        t = max(r.server_timestamp for r in replies)
        return ModelMessage(worker_id, payload, t, 0)

    def worker_model(self, worker_id: int) -> "Mapping[str, np.ndarray]":
        """θ_0 + v_k reassembled across shards, original layer order."""
        return self.partition.merge(
            [shard.worker_model(worker_id) for shard in self.shards]
        )

    def worker_update_counts(self) -> "dict[int, int]":
        """Updates per worker — every shard sees every update, so shard
        counts agree; report the max so in-flight fan-outs stay monotone."""
        merged: "dict[int, int]" = {}
        for shard in self.shards:
            for worker, count in shard.worker_update_counts().items():
                merged[worker] = max(merged.get(worker, 0), count)
        return merged

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> "dict[str, object]":
        """Per-shard snapshots, one lock hold each (sequential, unnested)."""
        return {"shards": [shard.checkpoint_state() for shard in self.shards]}

    def restore_state(self, state: "Mapping[str, object]") -> None:
        shards_state = state["shards"]
        if len(shards_state) != self.num_shards:
            raise ValueError(
                f"checkpoint has {len(shards_state)} shards, server has {self.num_shards}"
            )
        for shard, shard_state in zip(self.shards, shards_state):
            shard.restore_state(shard_state)

    # ------------------------------------------------------------------
    def raw_staleness(self) -> "dict[int, list[int]]":
        """Per-worker staleness observations merged across shards.

        Concatenation, not averaging: each shard contributes one
        observation per update, so counts are ``updates × num_shards``
        while the distribution's location statistics are unchanged.
        """
        merged: "dict[int, list[int]]" = {}
        for shard in self.shards:
            for worker, values in shard.raw_staleness().items():
                merged.setdefault(worker, []).extend(values)
        return merged

    def staleness_summary(self) -> "dict[str, object]":
        """Exact staleness percentiles over the merged shard observations."""
        return summarize_staleness(self.raw_staleness())

    def global_model(self) -> "Mapping[str, np.ndarray]":
        """Materialise θ_t = θ_0 + M_t across shards, original layer order."""
        return self.partition.merge([shard.global_model() for shard in self.shards])

    @property
    def timestamp(self) -> int:
        """Server timestamp — every shard applies every update, so all
        shard clocks agree once the system quiesces; report the max so
        in-flight reads are still monotone."""
        return max(shard.timestamp for shard in self.shards)

    @property
    def num_workers(self) -> int:
        """Worker ids every shard holds state for (a join grows the shards
        one at a time; report the min so an in-flight join is not yet
        counted)."""
        return min(shard.num_workers for shard in self.shards)

    def server_state_bytes(self) -> int:
        """Sum of the shards' disjoint states (M, θ0 and v_k buffers or
        journal, each over the shard's own layers)."""
        return sum(shard.server_state_bytes() for shard in self.shards)

    # ------------------------------------------------------------------
    def register_lock(self, registry, name: str = "ps") -> None:
        """Enroll every shard lock (``<name>.shard<i>``) in the registry."""
        for i, shard in enumerate(self.shards):
            shard.register_lock(registry, f"{name}.shard{i}")
