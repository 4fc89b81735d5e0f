"""TCP-socket parameter-server trainer (the "socket" execution backend).

The deployment-shaped backend: the server binds a real TCP listener, and
workers — forked locally here, but the protocol is host-agnostic —
*connect* to it, register via the elastic-membership handshake
(:class:`~repro.comm.frames.ControlFrame` join → full-model bootstrap),
train, and leave.  Every exchange travels as actual bytes through
:class:`~repro.comm.socket.SocketChannel` — the same frames, the same
float32 wire conversion, the same serve loop
(:func:`~repro.comm.service.serve_channels`) as the pipe transport.

What this backend adds over the process backend:

* **Elastic membership** — workers are not pre-wired: each one joins
  through the listener (``join_delay_s`` delays chosen workers to
  exercise mid-run joins, whose ``v_k`` is bootstrapped from the live
  ``M_t``), and a :class:`~repro.ps.membership.WorkerDirectory` records
  the join/leave/crash/eviction history onto the result.
* **Straggler eviction** — ``evict_after_s`` arms the serve loop's
  silence timeout and the per-channel read deadline; an evicted or
  crashed worker resolves to the same partial-result semantics as a
  pipe-backend crash (``fail_at`` hard-kills workers to prove it).
* **Checkpoint/restore** — ``checkpoint_every`` writes the server's
  contiguous flat state (:mod:`repro.ps.checkpoint`) every N applied
  updates; ``restore_from`` restores it before serving, and workers
  fast-forward their data streams by the checkpoint's per-worker update
  counts so the continued run consumes the batches the original would
  have.

Requires the ``fork`` start method, like the process backend.  Prefer the
unified front-end (``repro.exec.Trainer`` with ``backend="socket"``).
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
from .membership import WorkerDirectory

__all__ = ["SocketTrainer"]

#: exit code of a hard-crashed (fail_at) worker — never a normal exit
_CRASH_EXIT_CODE = 17


def _worker_main(
    host: str,
    port: int,
    worker_id: int,
    num_workers: int,
    model_factory: Callable[[], Module],
    dataset: Dataset,
    batch_size: int,
    iterations: int,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    seed: int,
    fail_at: "int | None",
    join_delay_s: float,
    fast_forward: int,
    arena: bool,
    arena_dtype: "object | None",
    trace: bool,
) -> None:
    from ..comm.protocol import run_worker_loop  # lazy: comm imports ps
    from ..comm.socket import SocketChannel

    if join_delay_s > 0:
        time.sleep(join_delay_s)  # mid-run joiner: everyone else is training
    loader = DataLoader(dataset, batch_size, seed=seed)
    model = model_factory()
    # theta0 is NOT pre-seeded here: the join handshake installs the live
    # θ_t (which at t=0 is θ_0 after the float32 wire round-trip) — the
    # same state a reconnecting or late worker would receive.
    node = build_worker(
        worker_id,
        num_workers,
        model,
        loader,
        method,
        hyper,
        schedule,
        theta0=None,
        arena=arena,
        arena_dtype=arena_dtype,
    )
    # Restored run: burn the batches the pre-checkpoint run consumed so
    # the continued stream picks up exactly where the original left off.
    for _ in range(fast_forward):
        node.batches.next_batch()
    node.iteration = fast_forward

    def crash_hook(i: int) -> None:
        if fail_at is not None and i >= fail_at:
            # Hard crash: no leave, no close frame — the server must
            # survive on the EOF it sees when the connection drops.
            os._exit(_CRASH_EXIT_CODE)

    channel = SocketChannel.connect(host, port)
    if trace:
        child_tracer = Tracer()
        with use_tracer(child_tracer):
            run_worker_loop(
                node,
                channel,
                iterations,
                on_iteration=crash_hook,
                ship_telemetry=True,
                register=True,
            )
    else:
        run_worker_loop(node, channel, iterations, on_iteration=crash_hook, register=True)


class _RecordingListener:
    """Listener wrapper keeping every accepted channel reachable, so the
    trainer can sum wire-byte counters after the serve loop drops them."""

    def __init__(self, listener) -> None:
        self.listener = listener
        self.accepted: "list" = []

    @property
    def waitable(self):
        return self.listener.waitable

    def accept(self):
        channel = self.listener.accept()
        self.accepted.append(channel)
        return channel

    def close(self) -> None:
        self.listener.close()


class SocketTrainer:
    """PS training over real TCP connections, workers joining elastically."""

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
        join_delay_s: "Mapping[int, float] | None" = None,
        evict_after_s: "float | None" = None,
        checkpoint_every: "int | None" = None,
        checkpoint_path: "str | None" = None,
        restore_from: "str | None" = None,
        bind: "tuple[str, int] | None" = None,
        tracer: "object | None" = None,
        arena: bool = False,
        arena_dtype: "object | None" = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
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
        #: worker id → seconds to hold back before connecting (mid-run join)
        self.join_delay_s = dict(join_delay_s) if join_delay_s else {}
        #: serve-loop silence budget; also the per-channel read deadline
        self.evict_after_s = evict_after_s
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.restore_from = restore_from
        #: (host, port) to bind; None ⇒ loopback-ephemeral (CI default)
        self.bind = bind

        #: the reference model: θ0 is read from it, and the final
        #: evaluation uses it as scratch for θ0 + M
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
        self.membership = WorkerDirectory(self.server)

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        from ..comm.service import ServerService, serve_channels  # lazy: comm imports ps
        from ..comm.socket import SocketListener
        from .checkpoint import load_checkpoint, save_checkpoint

        fast_forward = {w: 0 for w in range(self.num_workers)}
        if self.restore_from is not None:
            header = load_checkpoint(self.server, self.restore_from)
            for w, count in header["shards"][0]["updates"].items():
                fast_forward[int(w)] = int(count)

        tracer = self.tracer if self.tracer is not None else current_tracer()
        trace = bool(getattr(tracer, "enabled", False))
        t_start = time.perf_counter()
        host, port = self.bind if self.bind is not None else ("127.0.0.1", 0)
        listener = _RecordingListener(
            SocketListener(host, port, tracer=tracer, read_timeout_s=self.evict_after_s)
        )
        host, port = listener.listener.address

        ctx = mp.get_context("fork")
        procs: "list[mp.Process]" = []
        for w in range(self.num_workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    host,
                    port,
                    w,
                    self.num_workers,
                    self.model_factory,
                    self.dataset,
                    self.batch_size,
                    self.iterations_per_worker,
                    self.method,
                    self.hyper,
                    self.schedule,
                    self.seed,
                    self.fail_at.get(w),
                    self.join_delay_s.get(w, 0.0),
                    fast_forward.get(w, 0),
                    self.arena,
                    self.arena_dtype,
                    trace,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

        loss_curve = Curve("loss_vs_server_step")

        def on_update(updates: int) -> None:
            if (
                self.checkpoint_every is not None
                and updates % self.checkpoint_every == 0
            ):
                save_checkpoint(self.server, self.checkpoint_path)

        service = ServerService(self.server, membership=self.membership)
        try:
            report = serve_channels(
                [],  # every channel arrives through the listener
                service,
                stats=self.server.stats,
                on_loss=lambda loss: loss_curve.add(len(loss_curve) + 1, loss),
                on_update=on_update if self.checkpoint_every is not None else None,
                listener=listener,
                expected_closes=self.num_workers,
                straggler_timeout_s=self.evict_after_s,
            )
        finally:
            listener.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        elapsed = time.perf_counter() - t_start

        # Final checkpoint so a restore picks up from the very end, not
        # the last cadence boundary.
        if self.checkpoint_every is not None:
            save_checkpoint(self.server, self.checkpoint_path)

        shipped_metrics: "list[dict]" = []
        for wid, frame in sorted(report.telemetry.items()):
            shipped_metrics.extend(dict(m) for m in frame.metrics)
            if trace:
                tracer.absorb(relabel_records(frame.spans, f"worker-{wid}"))

        acc, loss = evaluate_global_scratch(self.eval_model, self.server, self.dataset)
        stats = self.server.stats
        staleness = self.server.staleness_summary()
        channels = listener.accepted
        return TrainResult(
            method=self.method.name,
            backend="socket",
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
