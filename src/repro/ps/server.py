"""The parameter server.

Wraps :class:`~repro.core.tracker.ModelDifferenceTracker` with the paper's
two downstream modes:

* ``difference`` — DGS / GD-async / DGC-async: reply with the sparse model
  difference ``G_k`` (Algorithm 2), optionally secondary-compressed;
* ``model`` — vanilla ASGD: reply with the full dense global model.

Thread-safe: :meth:`handle` takes an internal lock, so concurrent callers
contend HOGWILD-style while state stays consistent.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

import numpy as np

from ..compression.base import Sparsifier
from ..compression.stats import CompressionStats
from ..compression.topk import TopKSparsifier
from ..core.arena import LayerArena
from ..core.layerops import scale_payload
from ..core.tracker import ModelDifferenceTracker
from ..metrics.meters import AverageMeter
from ..obs import names as obs_names
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import current_tracer
from .messages import DiffMessage, GradientMessage, ModelMessage

__all__ = [
    "ParameterServer",
    "STALENESS_BUCKETS",
    "LOCK_SECONDS_BUCKETS",
    "summarize_staleness",
]

#: histogram bucket upper bounds for staleness (update counts, not
#: seconds — the +Inf slot catches anything above 128 timestamps)
STALENESS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: half-decade bucket bounds for the lock wait/hold series.  Lock events
#: live in the µs–ms range; the coarse decade-wide default buckets put
#: p99 interpolation error at ~10×, which would drown the shard-count
#: effect the contention benchmark measures.
LOCK_SECONDS_BUCKETS = (
    1e-6, 3.16e-6, 1e-5, 3.16e-5, 1e-4, 3.16e-4,
    1e-3, 3.16e-3, 1e-2, 3.16e-2, 0.1, 0.316, 1.0,
)


def summarize_staleness(
    per_worker_values: "Mapping[int, list[int]]",
) -> "dict[str, object]":
    """Pure aggregation of raw per-worker staleness observations.

    Kept outside the server class (and outside any lock) so callers that
    fan in over N shards — N snapshot calls per report — pay for the
    percentile math once, on merged data, with no lock held.
    """
    def p50_p99(values: "list[int]") -> "tuple[float, float]":
        ordered = sorted(values)
        return _percentile(ordered, 50), _percentile(ordered, 99)

    per_worker = {}
    for w, values in sorted(per_worker_values.items()):
        p50, p99 = p50_p99(values)
        per_worker[w] = {
            "count": len(values),
            "mean": float(np.mean(values)),
            "p50": p50,
            "p99": p99,
        }
    all_values = [s for values in per_worker_values.values() for s in values]
    p50, p99 = p50_p99(all_values) if all_values else (float("nan"), float("nan"))
    return {"p50": p50, "p99": p99, "per_worker": per_worker}


def _percentile(ordered: "list[int]", q: float) -> float:
    """``np.percentile(ordered, q)`` for a sorted, non-empty list, bitwise.

    NumPy's default "linear" rule, restated: ``np.percentile`` finds its
    neighbours through ``np.unique``, which imports ``numpy.ma`` (1–2 MiB
    of RSS) on first use, and a report path should not pay that.
    """
    pos = (len(ordered) - 1) * (q / 100)
    i = int(pos)
    if i >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = ordered[i], ordered[i + 1]
    t = pos - i
    d = b - a
    # NumPy's _lerp: from whichever neighbour is nearer
    return a + d * t if t < 0.5 else b - d * (1 - t)


class ParameterServer:
    """PS node: applies worker updates, answers with model state."""

    #: attributes ``self._lock`` protects — the single source of truth
    #: shared by the static checker and the dynamic race instrumentation
    #: (:func:`repro.analysis.race.instrument_object`).  ``stats`` is
    #: deliberately absent: byte accounting is recorded by the channel
    #: layer into a self-synchronising ``CompressionStats``.
    __guarded_attrs__ = ("tracker", "staleness_meter", "worker_staleness")

    def __init__(
        self,
        theta0: "Mapping[str, np.ndarray]",
        num_workers: int,
        downstream: str = "difference",
        secondary_ratio: float | None = None,
        secondary_min_sparse_size: int = 256,
        staleness_damping: bool = False,
        dtype: "np.dtype | type | str | None" = None,
        shard: int | None = None,
    ) -> None:
        if downstream not in ("difference", "model"):
            raise ValueError(f"downstream must be 'difference' or 'model', got {downstream!r}")
        # θ0 as an arena too, so global_model() is one fused θ0 + M.
        self.theta0 = LayerArena.from_layers(theta0, dtype=np.float32 if dtype is None else dtype)
        secondary: Sparsifier | None = (
            TopKSparsifier(secondary_ratio, min_sparse_size=secondary_min_sparse_size)
            if secondary_ratio is not None
            else None
        )
        self.downstream = downstream
        self.tracker = ModelDifferenceTracker(
            self.theta0.shapes,
            num_workers,
            secondary=secondary,
            track_differences=(downstream == "difference"),
            dtype=dtype,
        )
        #: byte-accounting sink — *recorded into by the comm channel layer*
        #: (the server applies updates; what they cost on the wire is the
        #: transport's knowledge), read back by every TrainResult.
        self.stats = CompressionStats()
        self.staleness_meter = AverageMeter("staleness")
        #: contention telemetry: how long handle() waited for the lock vs
        #: how long it held it — the HOGWILD bottleneck signal (seconds).
        self.lock_wait_meter = AverageMeter("lock_wait_s")
        self.lock_hold_meter = AverageMeter("lock_hold_s")
        #: raw per-worker staleness observations (exact p50/p99 for
        #: TrainResult; the registry's bucketed series are the streamable
        #: approximation for metrics.jsonl / health checks)
        self.worker_staleness: "dict[int, list[int]]" = {}
        #: per-worker time-bucketed series (self-synchronising, like
        #: ``stats``: observed *outside* the server lock)
        self.metrics = MetricsRegistry()
        #: gap-aware mitigation (Barkai et al., the paper's [4]): scale an
        #: incoming update by 1/(staleness + 1) before applying it, damping
        #: the implicit momentum that asynchrony introduces.
        self.staleness_damping = staleness_damping
        #: shard id when this server is one partition of a
        #: :class:`~repro.ps.sharded.ShardedParameterServer` (labels the
        #: telemetry series and trace lanes); ``None`` = unsharded.
        self.shard = shard
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def handle(self, msg: GradientMessage) -> "DiffMessage | ModelMessage":
        """Process one upstream gradient message and build the reply."""
        t_request = time.perf_counter()
        with self._lock:
            t_acquired = time.perf_counter()
            staleness = self.tracker.staleness(msg.worker_id)
            self.staleness_meter.update(staleness)
            self.worker_staleness.setdefault(msg.worker_id, []).append(staleness)
            payload = msg.payload
            if self.staleness_damping and staleness > 0:
                payload = scale_payload(payload, 1.0 / (staleness + 1))
            t_apply = time.perf_counter()
            t = self.tracker.apply_update(payload)
            t_applied = time.perf_counter()

            if self.downstream == "difference":
                diff = self.tracker.model_difference(msg.worker_id)
                t_replied = time.perf_counter()
                reply: DiffMessage | ModelMessage = DiffMessage(
                    msg.worker_id, diff, t, staleness
                )
            else:
                model = self.tracker.global_model(self.theta0)
                t_replied = time.perf_counter()
                # ASGD still advances prev(k): the worker now holds θ_t.
                self.tracker.mark_synced(msg.worker_id)
                reply = ModelMessage(msg.worker_id, model, t, staleness)
            t_done = time.perf_counter()
            wait = t_acquired - t_request
            self.lock_wait_meter.update(wait)
            self.lock_hold_meter.update(t_done - t_acquired)

        # Bucketed series are observed outside the lock (their own fine-
        # grained locks must never nest inside the server lock), same as
        # the tracer spans below; the registry is self-synchronising, so
        # it is not server-lock-guarded state.
        hold = t_done - t_acquired
        labels = {"worker": msg.worker_id}
        if self.shard is not None:
            labels["shard"] = self.shard
        metrics = self.metrics
        metrics.histogram(
            obs_names.METRIC_SERVER_STALENESS,
            buckets=STALENESS_BUCKETS,
            **labels,
        ).observe(staleness)
        metrics.histogram(
            obs_names.METRIC_SERVER_LOCK_WAIT_S,
            buckets=LOCK_SECONDS_BUCKETS,
            **labels,
        ).observe(wait)
        metrics.histogram(
            obs_names.METRIC_SERVER_LOCK_HOLD_S,
            buckets=LOCK_SECONDS_BUCKETS,
            **labels,
        ).observe(hold)

        tracer = current_tracer()
        if tracer.enabled:
            # Emitted outside the lock (no tracing cost added to hold time),
            # from stamps taken under it: server.handle and the tracker
            # spans nested in it.  Wall-clock domain — the simulator stamps
            # its own virtual-time server spans from the event timeline
            # instead.  Shards emit on their own ``shard-<n>`` lane so the
            # Chrome view shows the partitions working side by side.
            tid = "" if self.shard is None else f"shard-{self.shard}"
            args = {"worker": msg.worker_id}
            if self.shard is not None:
                args["shard"] = self.shard
            tracer.add_span(
                obs_names.SERVER_HANDLE,
                t_acquired,
                t_done,
                tid=tid,
                cat="server",
                domain="wall",
                args={
                    **args,
                    "staleness": staleness,
                    "up_bytes": msg.nbytes(),
                    "down_bytes": reply.nbytes(),
                },
            )
            reply_name = (
                obs_names.TRACKER_MODEL_DIFFERENCE
                if self.downstream == "difference"
                else obs_names.TRACKER_GLOBAL_MODEL
            )
            for name, start, end, cat in (
                (obs_names.SERVER_LOCK_WAIT, t_request, t_acquired, "server"),
                (obs_names.TRACKER_APPLY_UPDATE, t_apply, t_applied, "tracker"),
                (reply_name, t_applied, t_replied, "tracker"),
            ):
                tracer.add_span(name, start, end, tid=tid, cat=cat, domain="wall", args=args)
        return reply

    # ------------------------------------------------------------------
    def bootstrap_worker(self, worker_id: int) -> ModelMessage:
        """Admit a (possibly new) worker under the lock; reply with θ_t.

        The elastic-join handshake: the tracker records ``v_k ← M_t`` /
        ``prev(k) ← t`` (so the joiner's first staleness reads zero and
        Eq. 5 holds from its first exchange), and the reply carries the
        full dense model the worker installs before training.
        """
        with self._lock:
            self.tracker.bootstrap_worker(worker_id)
            model = self.tracker.global_model(self.theta0)
            t = self.tracker.t
        return ModelMessage(worker_id, model, t, 0)

    def worker_model(self, worker_id: int) -> "Mapping[str, np.ndarray]":
        """Materialise the model worker ``k`` holds (θ_0 + v_k) — what a
        restored trainer installs on that worker's replica."""
        with self._lock:
            return self.tracker.worker_model(self.theta0, worker_id)

    def worker_update_counts(self) -> "dict[int, int]":
        """Updates each worker has contributed (drives restore fast-forward)."""
        with self._lock:
            return {w: len(v) for w, v in self.worker_staleness.items()}

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> "dict[str, object]":
        """Snapshot the full server state under one lock hold.

        Buffers are copied out contiguous (``[M, v_0, …]``, see
        :meth:`~repro.core.tracker.ModelDifferenceTracker.flat_state`) so
        the caller can serialise outside the lock; ``updates`` carries the
        per-worker handled-update counts a restoring trainer fast-forwards
        its data streams by.
        """
        with self._lock:
            return {
                "t": self.tracker.t,
                "prev": list(self.tracker.prev),
                "num_workers": self.tracker.num_workers,
                "updates": {w: len(v) for w, v in self.worker_staleness.items()},
                "buffers": [buf.copy() for buf in self.tracker.flat_state()],
            }

    def restore_state(self, state: "Mapping[str, object]") -> None:
        """Restore a :meth:`checkpoint_state` snapshot under the lock."""
        with self._lock:
            self.tracker.restore(state["t"], state["prev"], state["buffers"])

    # ------------------------------------------------------------------
    def raw_staleness(self) -> "dict[int, list[int]]":
        """Snapshot the raw per-worker staleness lists (lock held only for
        the copy — aggregation happens in :func:`summarize_staleness`)."""
        with self._lock:
            return {w: list(v) for w, v in self.worker_staleness.items()}

    def staleness_summary(self) -> "dict[str, object]":
        """Exact staleness percentiles from the raw observations.

        Returns ``{"p50", "p99", "per_worker"}`` where ``per_worker`` maps
        worker id → ``{"count", "mean", "p50", "p99"}``.  Percentiles are
        ``nan`` when no updates were observed (the server never handled a
        message) — the *measured but empty* case; backends that cannot
        measure staleness at all report ``None`` fields on TrainResult
        instead (see docs/execution.md).
        """
        return summarize_staleness(self.raw_staleness())

    def global_model(self) -> "Mapping[str, np.ndarray]":
        """Materialise θ_t = θ_0 + M_t for evaluation (thread-safe)."""
        with self._lock:
            return self.tracker.global_model(self.theta0)

    @property
    def timestamp(self) -> int:
        with self._lock:
            return self.tracker.t

    @property
    def num_workers(self) -> int:
        """Worker ids the server holds state for are ``0 … num_workers − 1``
        (a join naming a larger id grows it)."""
        with self._lock:
            return self.tracker.num_workers

    def server_state_bytes(self) -> int:
        """Server memory: the tracker's state (M, the v_k buffers it keeps,
        its journal) + θ0 kept for evaluation.

        Computed on read, under the lock like any other guarded state: the
        journal and the held ``v_k`` change with every exchange (it is a
        report path, not a hot path).
        """
        with self._lock:
            return self.tracker.server_state_bytes() + sum(
                a.nbytes for a in self.theta0.values()
            )

    # ------------------------------------------------------------------
    def register_lock(self, registry, name: str = "ps") -> None:
        """Enroll the server lock in a lock-order :class:`LockRegistry`.

        After this call every acquisition of the server lock is nesting-
        timestamped, so a run under the registry reports order inversions
        against any other enrolled lock (shards, group leaders, channels).
        See :mod:`repro.analysis.concurrency.runtime`.
        """
        registry.attach(self, name)
