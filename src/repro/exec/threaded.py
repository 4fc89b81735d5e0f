"""Real-thread asynchronous trainer (the "threaded" execution backend).

Each worker runs in its own OS thread against a lock-protected
:class:`ParameterServer` — the genuine HOGWILD-style asynchrony of the
paper's testbed (workers exchange at their own pace; interleavings are
non-deterministic).  Used by integration tests and the quickstart; the
wall-clock experiments use the simulator, where time is modelled instead.
"""

from __future__ import annotations

import threading
import time

from ..comm.channel import InProcChannel
from ..comm.protocol import run_worker_loop
from ..comm.service import ServerService
from ..core.layerops import assign_parameters, parameter_views
from ..data.loader import DataLoader
from ..metrics.curves import Curve
from ..ps.checkpoint import load_checkpoint, save_checkpoint
from ..ps.worker import WorkerNode
from .common import (
    build_server,
    build_workers,
    evaluate_global,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from .config import RunConfig
from .result import TrainResult

__all__ = ["ThreadedTrainer"]


class ThreadedTrainer:
    """Runs ``config.num_workers`` threads of asynchronous training to completion."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.method = resolve_method(config.method)
        self.hyper = resolve_hyper(config.hyper)
        self.schedule = resolve_schedule(config.schedule, self.hyper)

        loader = DataLoader(config.dataset, config.batch_size, seed=config.seed)
        ref_model = config.model_factory()
        theta0 = parameter_views(ref_model)
        self.server = build_server(
            self.method,
            theta0,
            config.num_workers,
            self.hyper,
            secondary_compression=config.secondary_compression,
            staleness_damping=config.staleness_damping,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
            num_shards=config.num_shards,
        )
        # Worker 0 reuses the reference model, whose replica run() then
        # evaluates on.
        self.workers: list[WorkerNode] = build_workers(
            config.num_workers,
            config.model_factory,
            loader,
            self.method,
            self.hyper,
            self.schedule,
            theta0,
            first_model=ref_model,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
        )

        #: guards the loss curve, the update count and the checkpoint
        #: write: a due checkpoint is snapshotted and written under it, so
        #: writes never overlap and each file is the newest state
        self._step_lock = threading.Lock()
        self.loss_curve = Curve("loss_vs_server_step")
        self._errors: list[BaseException] = []
        self._updates_handled = 0

        if config.restore_from is not None:
            header = load_checkpoint(self.server, config.restore_from)
            counts = {
                int(w): int(c)
                for w, c in header["shards"][0]["updates"].items()
            }
            for node in self.workers:
                count = counts.get(node.worker_id, 0)
                # Install the model this worker held at checkpoint time
                # (θ_0 + v_k) and burn the batches it already consumed, so
                # the continued run picks up the stream exactly where the
                # original left off.
                assign_parameters(node.model, self.server.worker_model(node.worker_id))
                for _ in range(count):
                    node.batches.next_batch()
                node.iteration = count

    # ------------------------------------------------------------------
    def _record_loss(self, node: WorkerNode) -> None:
        every = self.config.checkpoint_every
        with self._step_lock:
            # Server timestamps are unique but arrive out of order across
            # threads; record against a local monotone index.
            step = len(self.loss_curve) + 1
            self.loss_curve.add(step, node.last_loss)
            if every is not None:
                self._updates_handled += 1
                if self._updates_handled % every == 0:
                    save_checkpoint(self.server, self.config.checkpoint_path)

    def _worker_loop(self, node: WorkerNode, channel) -> None:
        try:
            run_worker_loop(
                node,
                channel,
                self.config.iterations_per_worker(),
                on_step=self._record_loss,
                register=self.config.register,
            )
        except BaseException as exc:  # surface worker crashes to the caller
            self._errors.append(exc)

    def run(self) -> TrainResult:
        config = self.config
        service = ServerService(self.server)
        channels = [
            InProcChannel(
                service,
                node.worker_id,
                stats=self.server.stats,
                wire_fidelity=config.wire_fidelity,
            )
            for node in self.workers
        ]
        t_start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._worker_loop, args=(node, ch), name=f"worker-{node.worker_id}"
            )
            for node, ch in zip(self.workers, channels)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start
        if self._errors:
            raise RuntimeError(f"{len(self._errors)} worker(s) failed") from self._errors[0]
        if config.checkpoint_every is not None:
            # Final checkpoint so a restore continues from the very end,
            # not the last cadence boundary.
            save_checkpoint(self.server, config.checkpoint_path)

        # Borrow worker 0's replica for evaluation: its BatchNorm running
        # statistics reflect actual training data.
        acc, loss = evaluate_global(self.workers[0].model, self.server, config.dataset)
        stats = self.server.stats
        closes = [ch.close_frame for ch in channels if ch.close_frame is not None]
        staleness = self.server.staleness_summary()
        return TrainResult(
            method=self.method.name,
            backend="threaded",
            num_workers=config.num_workers,
            num_shards=getattr(self.server, "num_shards", 1),
            final_accuracy=acc,
            final_loss=loss,
            loss_vs_step=self.loss_curve,
            total_iterations=self.server.timestamp,
            # Final accounting travels on the workers' close frames, the
            # same way it reaches the server on every other backend.
            samples_processed=sum(c.samples_processed or 0 for c in closes),
            mean_staleness=self.server.staleness_meter.avg,
            staleness_p50=staleness["p50"],
            staleness_p99=staleness["p99"],
            worker_staleness=staleness["per_worker"],
            metrics=self.server.metrics.snapshot(),
            upload_bytes=stats.upload_bytes,
            download_bytes=stats.download_bytes,
            upload_dense_bytes=stats.upload_dense_bytes,
            download_dense_bytes=stats.download_dense_bytes,
            makespan_s=elapsed,
            clock="wall",
            server_state_bytes=self.server.server_state_bytes(),
            worker_state_bytes=sum(c.worker_state_bytes or 0 for c in closes),
        )
