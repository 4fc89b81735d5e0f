"""Event-driven simulator for asynchronous PS training.

Runs *real* training (actual forward/backward passes, actual compression)
under a *virtual* clock: compute times are drawn from the cluster's compute
model and message transfer times follow byte-accurate wire sizes through
the shared server link (:mod:`repro.sim.network`).  Gradient staleness arises
naturally from the event ordering, exactly as on the paper's testbed.

Correctness of the chronology: worker lifecycles are strictly sequential
(compute → upload → server → download), the uplink is FIFO, and the event
heap pops upload-ready events in time order — so server updates are applied
in the order they would arrive on the wire.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..comm.service import ServerService
from ..comm.session import WorkerSession
from ..comm.sim import SimTransport
from ..core.layerops import parameter_views
from ..data.loader import DataLoader
from ..metrics.curves import Curve
from ..metrics.meters import EMAMeter
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from ..ps.worker import WorkerNode
from ..sim.network import SharedLink
from .common import (
    build_server,
    build_workers,
    evaluate_global,
    refuse_checkpointing,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from .config import RunConfig
from .result import TrainResult

__all__ = ["SimulatedTrainer"]


class SimulatedTrainer:
    """Simulate one asynchronous training run of ``config`` on its virtual cluster."""

    def __init__(self, config: RunConfig) -> None:
        refuse_checkpointing(config, "simulated")
        self.config = config
        self.method = resolve_method(config.method)
        self.hyper = resolve_hyper(config.hyper)
        self.schedule = resolve_schedule(config.schedule, self.hyper)
        self.cluster = cluster = config.resolved_cluster()
        self._rng = np.random.default_rng(cluster.seed * 7919 + config.seed)

        num_workers = cluster.num_workers
        loader = DataLoader(config.dataset, config.batch_size, seed=config.seed)
        ref_model = config.model_factory()
        theta0 = parameter_views(ref_model)
        self.server = build_server(
            self.method,
            theta0,
            num_workers,
            self.hyper,
            secondary_compression=config.secondary_compression,
            staleness_damping=config.staleness_damping,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
            num_shards=config.num_shards,
        )
        # Worker 0 reuses the reference model (its BatchNorm statistics
        # then reflect actual training data for _evaluate_global).
        self.workers: list[WorkerNode] = build_workers(
            num_workers,
            config.model_factory,
            loader,
            self.method,
            self.hyper,
            self.schedule,
            theta0,
            first_model=ref_model,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
            seed=config.seed,
        )

        self.uplink = SharedLink(cluster.uplink)
        # Half-duplex: both directions contend for the same FIFO resource.
        self.downlink = self.uplink if cluster.duplex == "half" else SharedLink(cluster.downlink)
        self._speed = cluster.compute.worker_speed_factors(num_workers, self._rng)

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        config = self.config
        cluster = self.cluster
        fail_at = config.fail_at or {}
        compute = cluster.compute
        loss_vs_step = Curve("loss_vs_step")
        loss_vs_time = Curve("loss_vs_time")
        acc_vs_step = Curve("acc_vs_step")
        loss_ema = EMAMeter(beta=0.9)

        # Event heap: (upload_ready_time, tiebreak, worker_id).
        heap: list[tuple[float, int, int]] = []
        seq = 0
        for node in self.workers:
            t0 = compute.sample(self._rng, self._speed[node.worker_id])
            heapq.heappush(heap, (t0, seq, node.worker_id))
            seq += 1

        makespan = 0.0
        applied = 0
        # Spans are stamped with the *virtual* clock (same schema as the
        # remote engine's wall-clock spans).
        tracer = current_tracer()
        # All exchanges route through the comm layer: a worker's session
        # builds its upload and applies its reply; the transport owns the
        # link pair, the serial server, the byte accounting and the spans.
        transport = SimTransport(
            self.uplink,
            self.downlink,
            wire_scale=cluster.wire_scale,
            server_overhead_s=cluster.server_overhead_s,
            stats=self.server.stats,
        )
        service = ServerService(self.server)
        compute_start = {node.worker_id: 0.0 for node in self.workers}
        while heap and applied < config.total_iterations:
            ready_t, _, wid = heapq.heappop(heap)
            node = self.workers[wid]
            if node.iteration >= fail_at.get(wid, np.inf):
                # Injected crash: the in-flight update is lost, and the
                # worker's server-side state persists.
                continue

            session = WorkerSession(node)
            reply, transfer = transport.exchange(ready_t, session.upload(), service)
            session.apply(reply)
            if tracer.enabled:
                tracer.add_span(
                    obs_names.WORKER_COMPUTE,
                    compute_start[wid],
                    ready_t,
                    tid=f"worker-{wid}",
                    cat="worker",
                    domain="virtual",
                    args={"worker": wid, "iteration": node.iteration - 1},
                )
            compute_start[wid] = transfer.down_end

            applied += 1
            makespan = transfer.server_end
            smoothed = loss_ema.update(node.last_loss)
            loss_vs_step.add(applied, smoothed)
            loss_vs_time.add(transfer.server_end, smoothed)
            if config.eval_every is not None and applied % config.eval_every == 0:
                acc, _ = self._evaluate_global()
                acc_vs_step.add(applied, acc)

            if applied + len(heap) < config.total_iterations:
                next_ready = transfer.down_end + compute.sample(self._rng, self._speed[wid])
                heapq.heappush(heap, (next_ready, seq, wid))
                seq += 1

        final_acc, final_loss = self._evaluate_global()
        if config.eval_every is not None and (not len(acc_vs_step) or acc_vs_step.xs[-1] < applied):
            acc_vs_step.add(applied, final_acc)

        staleness_summary = self.server.staleness_summary()
        return TrainResult(
            method=self.method.name,
            backend="simulated",
            num_workers=cluster.num_workers,
            num_shards=getattr(self.server, "num_shards", 1),
            final_accuracy=final_acc,
            final_loss=final_loss,
            loss_vs_step=loss_vs_step,
            loss_vs_time=loss_vs_time,
            acc_vs_step=acc_vs_step,
            makespan_s=makespan,
            clock="virtual",
            total_iterations=applied,
            samples_processed=sum(n.samples_processed for n in self.workers),
            mean_staleness=self.server.staleness_meter.avg,
            staleness_p50=staleness_summary["p50"],
            staleness_p99=staleness_summary["p99"],
            worker_staleness=staleness_summary["per_worker"],
            metrics=self.server.metrics.snapshot(),
            upload_bytes=self.server.stats.upload_bytes,
            download_bytes=self.server.stats.download_bytes,
            upload_dense_bytes=self.server.stats.upload_dense_bytes,
            download_dense_bytes=self.server.stats.download_dense_bytes,
            uplink_utilisation=self.uplink.utilisation(makespan),
            downlink_utilisation=self.downlink.utilisation(makespan),
            server_state_bytes=self.server.server_state_bytes(),
            worker_state_bytes=sum(n.worker_state_bytes() for n in self.workers),
        )

    # ------------------------------------------------------------------
    def _evaluate_global(self) -> tuple[float, float]:
        """Accuracy/loss of θ_0 + M on the validation split.

        Worker 0's replica supplies BatchNorm running statistics (they are
        trained locally and are not part of the PS exchange)."""
        return evaluate_global(self.workers[0].model, self.server, self.config.dataset)
