"""Multi-process parameter-server trainer (the "process" execution backend).

The closest offline stand-in for the paper's multi-machine deployment:
workers are separate OS processes (true parallel gradient computation, no
GIL sharing), and every exchange travels as *actual bytes* through an OS
pipe speaking the typed frame format of :mod:`repro.comm.frames` — the
same ``encode()``/``decode()`` path the paper's gloo transport performs.

Workers end their stream with an explicit close frame carrying their final
local accounting (and an error description if the worker loop raised); a
pipe that dies *without* one is a crash, which the serving loop
(:func:`repro.comm.pipe.serve_pipe_channels`) reports as a partial result
instead of hanging.  ``fail_at`` hard-kills chosen workers mid-run to
exercise exactly that path.

Notes
-----
* Requires the ``fork`` start method (Linux default): workers inherit the
  model factory and dataset by address-space copy, so no pickling of
  closures is needed.
* Values cross the wire as float32 (as on the paper's testbed), so worker
  replicas drift from the server model at float32 resolution — real
  deployments hold float32 end-to-end, making this exact in practice.
* BatchNorm running statistics stay local to each worker process; the
  final evaluation uses a fresh replica's statistics (prefer BN-free
  models for exact numbers here, e.g. MLP).

Prefer the unified front-end (``repro.exec.Trainer`` with
``backend="process"``); this class remains the underlying engine and a
thin public adapter.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Callable, Mapping

from ..core.layerops import parameter_views
from ..core.methods import Hyper, MethodSpec
from ..data.loader import DataLoader
from ..data.synthetic import Dataset
from ..exec.common import (
    build_server,
    build_worker,
    evaluate_global_scratch,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from ..exec.result import TrainResult
from ..metrics.curves import Curve
from ..nn.module import Module
from ..obs.span import relabel_records
from ..obs.tracer import Tracer, current_tracer, use_tracer
from ..optim.schedules import Schedule

__all__ = ["ProcessTrainer", "ProcessResult"]

#: deprecated alias — the process engine now returns the unified schema
ProcessResult = TrainResult

#: exit code of a hard-crashed (fail_at) worker — never a normal exit
_CRASH_EXIT_CODE = 17


def _worker_main(
    conn,
    worker_id: int,
    num_workers: int,
    model_factory: Callable[[], Module],
    dataset: Dataset,
    theta0,
    batch_size: int,
    iterations: int,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    seed: int,
    fail_at: "int | None",
    arena: bool = False,
    arena_dtype: "object | None" = None,
    trace: bool = False,
) -> None:
    from ..comm.pipe import PipeChannel  # lazy: comm imports ps
    from ..comm.protocol import run_worker_loop

    loader = DataLoader(dataset, batch_size, seed=seed)
    node = build_worker(
        worker_id,
        num_workers,
        model_factory(),
        loader,
        method,
        hyper,
        schedule,
        theta0=theta0,
        arena=arena,
        arena_dtype=arena_dtype,
    )

    def crash_hook(i: int) -> None:
        if fail_at is not None and i >= fail_at:
            # Hard crash: no close frame, no cleanup — the parent must
            # survive on the EOF it sees when the pipe drops.
            os._exit(_CRASH_EXIT_CODE)

    if trace:
        # The parent's tracer object is unreachable across the fork (its
        # buffers land in this process's copy), so the child records into
        # its own tracer and ships the spans back as a TelemetryFrame.
        child_tracer = Tracer()
        with use_tracer(child_tracer):
            run_worker_loop(
                node,
                PipeChannel(conn),
                iterations,
                on_iteration=crash_hook,
                ship_telemetry=True,
            )
    else:
        run_worker_loop(node, PipeChannel(conn), iterations, on_iteration=crash_hook)


class ProcessTrainer:
    """PS training with one OS process per worker, bytes on real pipes."""

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
        fail_at: "Mapping[int, int] | None" = None,
        tracer: "object | None" = None,
        arena: bool = False,
        arena_dtype: "object | None" = None,
    ) -> None:
        self.method = resolve_method(method)
        #: explicit tracer; None ⇒ the ambient repro.obs tracer at run time
        self.tracer = tracer
        self.hyper = resolve_hyper(hyper)
        self.schedule = resolve_schedule(schedule, self.hyper)
        self.model_factory = model_factory
        self.dataset = dataset
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.iterations_per_worker = iterations_per_worker
        self.seed = seed
        self.arena = arena
        self.arena_dtype = arena_dtype
        #: worker id → local iteration at which that worker hard-crashes
        self.fail_at = dict(fail_at) if fail_at else {}

        #: the reference model: θ0 is read from it until the workers have
        #: forked, and the final evaluation uses it as scratch for θ0 + M
        self.eval_model = model_factory()
        self.server = build_server(
            self.method,
            parameter_views(self.eval_model),
            num_workers,
            self.hyper,
            secondary_compression=secondary_compression,
            staleness_damping=staleness_damping,
            arena=arena,
            arena_dtype=arena_dtype,
            num_shards=num_shards,
        )

    def run(self) -> TrainResult:
        from ..comm.channel import ServerService  # lazy: comm imports ps
        from ..comm.pipe import PipeChannel, serve_pipe_channels

        tracer = self.tracer if self.tracer is not None else current_tracer()
        trace = bool(getattr(tracer, "enabled", False))
        t_start = time.perf_counter()
        # still θ0: only the final evaluation writes eval_model
        theta0 = parameter_views(self.eval_model)
        ctx = mp.get_context("fork")
        channels: "list[PipeChannel]" = []
        procs: "list[mp.Process]" = []
        for w in range(self.num_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child,
                    w,
                    self.num_workers,
                    self.model_factory,
                    self.dataset,
                    theta0,
                    self.batch_size,
                    self.iterations_per_worker,
                    self.method,
                    self.hyper,
                    self.schedule,
                    self.seed,
                    self.fail_at.get(w),
                    self.arena,
                    self.arena_dtype,
                    trace,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            channels.append(PipeChannel(parent, tracer=tracer))
            procs.append(proc)

        loss_curve = Curve("loss_vs_server_step")
        try:
            report = serve_pipe_channels(
                channels,
                ServerService(self.server),
                stats=self.server.stats,
                on_loss=lambda loss: loss_curve.add(len(loss_curve) + 1, loss),
            )
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        elapsed = time.perf_counter() - t_start

        # Merge each worker's shipped telemetry into the parent tracer:
        # spans get a per-process lane (proc="worker-N"), metric snapshots
        # join the result's metrics list alongside the server's series.
        shipped_metrics: "list[dict]" = []
        for wid, frame in sorted(report.telemetry.items()):
            shipped_metrics.extend(dict(m) for m in frame.metrics)
            if trace:
                tracer.absorb(relabel_records(frame.spans, f"worker-{wid}"))

        acc, loss = evaluate_global_scratch(self.eval_model, self.server, self.dataset)
        stats = self.server.stats
        staleness = self.server.staleness_summary()
        return TrainResult(
            method=self.method.name,
            backend="process",
            num_workers=self.num_workers,
            num_shards=getattr(self.server, "num_shards", 1),
            final_accuracy=acc,
            final_loss=loss,
            loss_vs_step=loss_curve,
            total_iterations=self.server.timestamp,
            samples_processed=report.samples_processed,
            mean_staleness=self.server.staleness_meter.avg,
            staleness_p50=staleness["p50"],
            staleness_p99=staleness["p99"],
            worker_staleness=staleness["per_worker"],
            metrics=self.server.metrics.snapshot() + shipped_metrics,
            upload_bytes=stats.upload_bytes,
            download_bytes=stats.download_bytes,
            upload_dense_bytes=stats.upload_dense_bytes,
            download_dense_bytes=stats.download_dense_bytes,
            wire_bytes_up=sum(ch.wire_bytes_received for ch in channels),
            wire_bytes_down=sum(ch.wire_bytes_sent for ch in channels),
            makespan_s=elapsed,
            clock="wall",
            server_state_bytes=self.server.server_state_bytes(),
            worker_state_bytes=report.worker_state_bytes,
            errors=list(report.errors),
        )
