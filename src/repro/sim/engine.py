"""Event-driven simulator for asynchronous PS training.

Runs *real* training (actual forward/backward passes, actual compression)
under a *virtual* clock: compute times are drawn from the cluster's compute
model and message transfer times follow byte-accurate wire sizes through
the shared server link (``repro.sim.network``).  Gradient staleness arises
naturally from the event ordering, exactly as on the paper's testbed.

Correctness of the chronology: worker lifecycles are strictly sequential
(compute → upload → server → download), the uplink is FIFO, and the event
heap pops upload-ready events in time order — so server updates are applied
in the order they would arrive on the wire.

Prefer the unified front-end (``repro.exec.Trainer`` with
``backend="simulated"``, the default backend); this class remains the
underlying engine and a thin public adapter.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from ..core.layerops import parameter_views
from ..core.methods import Hyper, MethodSpec
from ..data.loader import DataLoader
from ..data.synthetic import Dataset
from ..exec.common import (
    build_server,
    build_workers,
    evaluate_global,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from ..exec.result import TrainResult
from ..metrics.curves import Curve
from ..metrics.meters import EMAMeter
from ..nn.module import Module
from ..obs import names as obs_names
from ..obs.tracer import NullTracer, Tracer, current_tracer
from ..optim.schedules import Schedule
from ..ps.worker import WorkerNode
from .cluster import ClusterConfig
from .network import SharedLink

__all__ = ["SimulatedTrainer"]


class SimulatedTrainer:
    """Simulate one asynchronous training run of ``method`` on ``dataset``."""

    def __init__(
        self,
        method: "MethodSpec | str",
        model_factory: Callable[[], Module],
        dataset: Dataset,
        cluster: ClusterConfig,
        batch_size: int,
        total_iterations: int,
        hyper: Hyper | None = None,
        schedule: Schedule | None = None,
        secondary_compression: bool | None = None,
        eval_every: int | None = None,
        staleness_damping: bool = False,
        num_shards: int = 1,
        fail_at: "dict[int, int] | None" = None,
        logger: "object | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        seed: int = 0,
        arena: bool = False,
        arena_dtype: "object | None" = None,
    ) -> None:
        self.method = resolve_method(method)
        if total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        self.hyper = resolve_hyper(hyper)
        self.schedule = resolve_schedule(schedule, self.hyper)
        self.dataset = dataset
        self.cluster = cluster
        self.batch_size = batch_size
        self.total_iterations = total_iterations
        self.eval_every = eval_every
        #: failure injection: worker id -> local iteration at which it
        #: crashes (stops producing updates; its server-side v_k persists).
        self.fail_at = fail_at or {}
        #: optional per-step telemetry sink (``log_step``), e.g.
        #: repro.obs.metrics.ObsLogger
        self.logger = logger
        #: explicit repro.obs tracer; None ⇒ the ambient tracer at run time.
        #: Spans are stamped with the *virtual* clock (same schema as the
        #: threaded trainer's wall-clock spans).
        self.tracer = tracer
        self._rng = np.random.default_rng(cluster.seed * 7919 + seed)

        num_workers = cluster.num_workers
        loader = DataLoader(dataset, batch_size, seed=seed)
        ref_model = model_factory()
        theta0 = parameter_views(ref_model)
        self.server = build_server(
            self.method,
            theta0,
            num_workers,
            self.hyper,
            secondary_compression=secondary_compression,
            staleness_damping=staleness_damping,
            arena=arena,
            arena_dtype=arena_dtype,
            num_shards=num_shards,
        )
        # Worker 0 reuses the reference model (its BatchNorm statistics
        # then reflect actual training data for _evaluate_global).
        self.workers: list[WorkerNode] = build_workers(
            num_workers,
            model_factory,
            loader,
            self.method,
            self.hyper,
            self.schedule,
            theta0,
            first_model=ref_model,
            arena=arena,
            arena_dtype=arena_dtype,
        )

        self.uplink = SharedLink(cluster.uplink)
        # Half-duplex: both directions contend for the same FIFO resource.
        self.downlink = self.uplink if cluster.duplex == "half" else SharedLink(cluster.downlink)
        self._speed = cluster.compute.worker_speed_factors(num_workers, self._rng)

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        cluster = self.cluster
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
        tracer = self.tracer if self.tracer is not None else current_tracer()
        emit_spans = tracer.enabled
        # All exchanges route through the comm layer: the transport owns the
        # shared link pair, the wire scaling, the byte accounting and the
        # comm.send / server.handle / comm.recv virtual spans.
        from ..comm.channel import ServerService  # lazy: comm imports ps
        from ..comm.frames import GradientFrame
        from ..comm.sim import SimChannel, SimTransport

        transport = SimTransport(
            self.uplink,
            self.downlink,
            wire_scale=cluster.wire_scale,
            server_overhead_s=cluster.server_overhead_s,
            stats=self.server.stats,
            tracer=tracer,
        )
        service = ServerService(self.server)
        channels = {
            node.worker_id: SimChannel(transport, service, node.worker_id)
            for node in self.workers
        }
        compute_start = {node.worker_id: 0.0 for node in self.workers}
        while heap and applied < self.total_iterations:
            ready_t, _, wid = heapq.heappop(heap)
            node = self.workers[wid]
            if node.iteration >= self.fail_at.get(wid, np.inf):
                continue  # injected crash: the in-flight update is lost

            msg = node.compute_step()
            reply_frame, transfer = channels[wid].exchange(
                ready_t, GradientFrame(msg, node.last_loss)
            )
            reply = reply_frame.message
            node.apply_reply(reply)
            if emit_spans:
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
            if self.logger is not None:
                self.logger.log_step(
                    applied,
                    node.last_loss,
                    time_s=transfer.server_end,
                    worker=wid,
                    staleness=reply.staleness,
                    up_bytes=transfer.up_bytes,
                    down_bytes=transfer.down_bytes,
                )
            if self.eval_every is not None and applied % self.eval_every == 0:
                acc, _ = self._evaluate_global()
                acc_vs_step.add(applied, acc)

            if applied + len(heap) < self.total_iterations:
                next_ready = transfer.down_end + compute.sample(self._rng, self._speed[wid])
                heapq.heappush(heap, (next_ready, seq, wid))
                seq += 1

        final_acc, final_loss = self._evaluate_global()
        if self.eval_every is not None and (not len(acc_vs_step) or acc_vs_step.xs[-1] < applied):
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
        return evaluate_global(self.workers[0].model, self.server, self.dataset)
