"""Synchronous data-parallel SGD (SSGD) on the simulated cluster.

The paper frames DGS against the synchronous world (§2, §3.1): Gradient
Dropping and DGC were designed for SSGD, whose barrier makes every round as
slow as its slowest worker ("worker lags", §1).  This trainer provides that
reference point on the same simulator, and — per the paper's conclusion
that "SAMomentum is a general design and can be used to design new
synchronization training approaches" (§6) — it accepts any worker strategy,
including SAMomentum, giving the synchronous-DGS variant.

Semantics per round: every worker computes gradients on the *same* model
version, transforms them through its strategy, the server sums the updates
(Eq. 7) and applies them once, then broadcasts the (dense) aggregated
update.  Virtual time per round = straggler compute time + serialised
uploads + server step + serialised per-worker downloads, all through the
shared link model.
"""

from __future__ import annotations

import numpy as np

from ..comm.frames import ModelFrame
from ..comm.session import WorkerSession
from ..comm.sim import SimTransport
from ..compression.stats import CompressionStats
from ..core.arena import LayerArena
from ..core.layerops import add_payload, layer_shapes
from ..data.loader import DataLoader
from ..metrics.curves import Curve
from ..metrics.evaluation import evaluate_model
from ..metrics.meters import EMAMeter
from ..ps.messages import ModelMessage
from ..sim.network import SharedLink
from .common import (
    build_worker,
    refuse_checkpointing,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from .config import RunConfig
from .result import TrainResult

__all__ = ["SynchronousTrainer"]


class SynchronousTrainer:
    """Barrier-synchronised data-parallel training on the virtual cluster."""

    def __init__(self, config: RunConfig) -> None:
        refuse_checkpointing(config, "sync")
        self.config = config
        # SSGD has no server, so single-node methods (e.g. msgd) are allowed.
        self.method = resolve_method(config.method, require_distributed=False)
        self.hyper = resolve_hyper(config.hyper)
        self.schedule = resolve_schedule(config.schedule, self.hyper)
        self.cluster = cluster = config.resolved_cluster()
        self._rng = np.random.default_rng(cluster.seed * 104729 + config.seed)

        n = cluster.num_workers
        loader = DataLoader(config.dataset, config.batch_size, seed=config.seed)
        self.model = config.model_factory()
        # Reused aggregation buffer (zeroed per round).
        self._agg = LayerArena(
            layer_shapes(self.model),
            dtype=np.float32 if config.arena_dtype is None else config.arena_dtype,
        )
        self.workers = [
            build_worker(
                w,
                n,
                self.model,  # all workers share the single global model
                loader,
                self.method,
                self.hyper,
                self.schedule,
                arena=config.arena,
                arena_dtype=config.arena_dtype,
            )
            for w in range(n)
        ]
        self.uplink = SharedLink(cluster.uplink)
        self.downlink = self.uplink if cluster.duplex == "half" else SharedLink(cluster.downlink)
        self._speed = cluster.compute.worker_speed_factors(n, self._rng)
        self._params = dict(self.model.named_parameters())

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        cluster = self.cluster
        n = cluster.num_workers
        rounds = self.config.rounds()
        loss_vs_step = Curve("loss_vs_step")
        loss_vs_time = Curve("loss_vs_time")
        ema = EMAMeter(beta=0.9)

        # SSGD has no parameter server, so the transport gets its own byte
        # sink — frames still flow through the same comm layer as the
        # asynchronous backends, so the accounting means the same thing.
        transport = SimTransport(
            self.uplink,
            self.downlink,
            wire_scale=cluster.wire_scale,
            stats=CompressionStats(),
        )
        clock = 0.0
        straggler_lost = 0.0
        samples = 0

        for rnd in range(1, rounds + 1):
            # 1) Barriered compute: the round waits for the slowest worker.
            times = [
                cluster.compute.sample(self._rng, self._speed[w]) for w in range(n)
            ]
            compute_end = clock + max(times)
            # Per-worker time wasted waiting at the barrier this round.
            straggler_lost += max(times) - sum(times) / n

            # 2) Every worker computes on the same model version.
            uploads = [WorkerSession(node).upload() for node in self.workers]
            samples = sum(node.samples_processed for node in self.workers)

            # 3) Serialised uploads through the shared link.
            t = compute_end
            for frame in uploads:
                _, t = transport.send_frame(t, frame, worker=frame.worker_id)
            t += cluster.server_overhead_s

            # 4) Aggregate and apply to the global model.  Eq. (7) SUMS the
            # per-worker updates (θ_{t+1} = θ_t − Σ_k η∇_k): one round does
            # the optimisation work of N sequential steps, which is what
            # makes the barrier comparison against N async updates fair.
            mean_loss = float(np.mean([node.last_loss for node in self.workers]))
            agg = self._agg.zero_()
            for frame in uploads:
                agg.add_payload(frame.message.payload)
            add_payload(self._params, agg, scale=-1.0)

            # 5) Broadcast the dense aggregated update, one transfer/worker.
            for w in range(n):
                _, t = transport.recv_frame(
                    t, ModelFrame(ModelMessage(w, agg, rnd, 0)), worker=w
                )

            clock = t
            smoothed = ema.update(mean_loss)
            loss_vs_step.add(rnd, smoothed)
            loss_vs_time.add(clock, smoothed)

        acc, loss = evaluate_model(self.model, self.config.dataset.x_val, self.config.dataset.y_val)
        return TrainResult(
            method=self.method.name,
            backend="sync",
            num_workers=n,
            final_accuracy=acc,
            final_loss=loss,
            loss_vs_step=loss_vs_step,
            loss_vs_time=loss_vs_time,
            makespan_s=clock,
            clock="virtual",
            rounds=rounds,
            # One aggregated application per round does the optimisation
            # work of n sequential async updates (Eq. 7).
            total_iterations=rounds * n,
            samples_processed=samples,
            mean_staleness=0.0,  # the barrier makes every gradient current
            staleness_p50=0.0,  # defined by construction, so 0.0 not NaN;
            staleness_p99=0.0,  # worker_staleness stays None (no server)
            upload_bytes=transport.stats.upload_bytes,
            download_bytes=transport.stats.download_bytes,
            upload_dense_bytes=transport.stats.upload_dense_bytes,
            download_dense_bytes=transport.stats.download_dense_bytes,
            uplink_utilisation=self.uplink.utilisation(clock),
            downlink_utilisation=self.downlink.utilisation(clock),
            worker_state_bytes=sum(node.worker_state_bytes() for node in self.workers),
            straggler_time_s=straggler_lost,
        )
