"""Real-thread asynchronous trainer (the "threaded" execution backend).

Each worker runs in its own OS thread against a lock-protected
:class:`ParameterServer` — the genuine HOGWILD-style asynchrony of the
paper's testbed (workers exchange at their own pace; interleavings are
non-deterministic).  Used by integration tests and the quickstart; the
wall-clock experiments use ``repro.sim`` where time is modelled instead.

Prefer the unified front-end (``repro.exec.Trainer`` with
``backend="threaded"``, or ``run_distributed(..., backend="threaded")``);
this class remains the underlying engine and a thin public adapter.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

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
from ..nn.module import Module
from ..obs.tracer import NullTracer, Tracer, current_tracer
from ..optim.schedules import Schedule
from .worker import WorkerNode

__all__ = ["ThreadedTrainer"]


class ThreadedTrainer:
    """Runs ``num_workers`` threads of asynchronous training to completion."""

    def __init__(
        self,
        method: "MethodSpec | str",
        model_factory: Callable[[], Module],
        dataset: Dataset,
        num_workers: int,
        batch_size: int,
        iterations_per_worker: int,
        hyper: Hyper | None = None,
        schedule: Schedule | None = None,
        secondary_compression: bool | None = None,
        staleness_damping: bool = False,
        num_shards: int = 1,
        seed: int = 0,
        tracer: "Tracer | NullTracer | None" = None,
        wire_fidelity: bool = False,
        arena: bool = False,
        arena_dtype: "object | None" = None,
        register: bool = False,
        checkpoint_every: "int | None" = None,
        checkpoint_path: "str | None" = None,
        restore_from: "str | None" = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self.method = resolve_method(method)
        self.hyper = resolve_hyper(hyper)
        self.schedule = resolve_schedule(schedule, self.hyper)
        self.dataset = dataset
        self.num_workers = num_workers
        self.iterations_per_worker = iterations_per_worker

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
        # Worker 0 reuses the reference model, whose replica run() then
        # evaluates on.
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

        self._loss_lock = threading.Lock()
        self.loss_curve = Curve("loss_vs_server_step")
        self._errors: list[BaseException] = []
        #: explicit tracer; None ⇒ the ambient repro.obs tracer at run time
        self.tracer = tracer
        #: round-trip every frame through the byte codec (float32 wire)
        self.wire_fidelity = wire_fidelity
        #: run the elastic-membership join/leave handshake around each
        #: worker loop (what the process and socket backends always do —
        #: enable it here to compare backends under identical protocols)
        self.register = register
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.restore_from = restore_from
        self._updates_handled = 0

        if restore_from is not None:
            from ..core.layerops import assign_parameters
            from .checkpoint import load_checkpoint

            header = load_checkpoint(self.server, restore_from)
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
        checkpoint_due = False
        with self._loss_lock:
            # Server timestamps are unique but arrive out of order across
            # threads; record against a local monotone index.
            step = len(self.loss_curve) + 1
            self.loss_curve.add(step, node.last_loss)
            if self.checkpoint_every is not None:
                self._updates_handled += 1
                checkpoint_due = self._updates_handled % self.checkpoint_every == 0
        if checkpoint_due:
            # Outside the loss lock: the snapshot takes the server locks
            # and the write is pure file I/O.
            from .checkpoint import save_checkpoint

            save_checkpoint(self.server, self.checkpoint_path)

    def _worker_loop(self, node: WorkerNode, channel) -> None:
        # Each OS thread emits into its own Tracer buffer (lock-free);
        # buffers are merged after join() via Tracer.records().
        from ..comm.protocol import run_worker_loop  # lazy: comm imports ps

        tracer = self.tracer if self.tracer is not None else current_tracer()
        try:
            run_worker_loop(
                node,
                channel,
                self.iterations_per_worker,
                tracer=tracer,
                on_step=self._record_loss,
                register=self.register,
            )
        except BaseException as exc:  # surface worker crashes to the caller
            self._errors.append(exc)

    def run(self) -> TrainResult:
        from ..comm.channel import InProcChannel, ServerService  # lazy: comm imports ps

        service = ServerService(self.server)
        channels = [
            InProcChannel(
                service,
                node.worker_id,
                stats=self.server.stats,
                wire_fidelity=self.wire_fidelity,
                tracer=self.tracer,
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
        if self.checkpoint_every is not None:
            # Final checkpoint so a restore continues from the very end,
            # not the last cadence boundary.
            from .checkpoint import save_checkpoint

            save_checkpoint(self.server, self.checkpoint_path)

        # Borrow worker 0's replica for evaluation: its BatchNorm running
        # statistics reflect actual training data.
        acc, loss = evaluate_global(self.workers[0].model, self.server, self.dataset)
        stats = self.server.stats
        closes = [ch.close_frame for ch in channels if ch.close_frame is not None]
        staleness = self.server.staleness_summary()
        return TrainResult(
            method=self.method.name,
            backend="threaded",
            num_workers=self.num_workers,
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
