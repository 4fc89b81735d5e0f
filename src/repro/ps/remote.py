"""Parameter-server training with one OS process per worker (the "process"
and "socket" execution backends).

The closest offline stand-in for the paper's multi-machine deployment:
workers are separate OS processes (true parallel gradient computation, no
GIL sharing), and every exchange travels as *actual bytes* in the typed
frame format of :mod:`repro.comm.frames` — the same ``encode()``/
``decode()`` path the paper's gloo transport performs.  ``transport``
picks the link and nothing else:

* ``"pipe"`` — each worker inherits its end of a pre-made OS pipe;
* ``"tcp"`` — the server binds a listener (``bind``, loopback-ephemeral
  by default) and each worker *connects* to it.  The protocol is
  host-agnostic: ``python -m repro.ps serve``/``worker`` runs the same
  two halves in separate terminals.

Everything else is one code path whatever the link:

* **Elastic membership** — every worker registers through the join
  handshake (:class:`~repro.comm.frames.ControlFrame` join → full-model
  bootstrap), so θ reaches it as the live θ_t, never pre-wired.
  ``join_delay_s`` holds chosen workers back to exercise mid-run joins,
  and a :class:`~repro.ps.membership.WorkerDirectory`
  (``trainer.membership``) records the join/leave/crash/eviction history.
* **Crashes and stragglers** — a channel that dies without a close frame
  is a crash, reported as a partial result instead of a hang (``fail_at``
  hard-kills chosen workers to prove it); ``evict_after_s`` arms the serve
  loop's silence timeout, and on TCP also the per-channel read deadline.
* **Checkpoint/restore** — ``checkpoint_every`` writes the server's flat
  state (:mod:`repro.ps.checkpoint`) every N applied updates and at the
  end; ``restore_from`` loads it at construction, and workers
  fast-forward their data streams by the checkpoint's per-worker update
  counts so the continued run consumes the batches the original would
  have.

Notes
-----
* Requires the ``fork`` start method (Linux default): workers inherit the
  model factory and dataset by address-space copy, so no pickling of
  closures is needed.
* Values cross the wire as float32 (as on the paper's testbed), so worker
  replicas drift from the server model at float32 resolution.
* BatchNorm running statistics stay local to each worker process; the
  final evaluation uses a fresh replica's statistics (prefer BN-free
  models for exact numbers here, e.g. MLP).

Prefer the unified front-end (``repro.exec.Trainer`` with
``backend="process"`` or ``backend="socket"``).
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
from .checkpoint import load_checkpoint, save_checkpoint
from .membership import WorkerDirectory

__all__ = ["RemoteTrainer"]

#: transport → the backend name a result reports
_BACKENDS = {"pipe": "process", "tcp": "socket"}

#: exit code of a hard-crashed (fail_at) worker — never a normal exit
_CRASH_EXIT_CODE = 17


def _worker_main(
    endpoint,
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
    """One worker process: ``endpoint`` is its end of a pipe or the
    server's ``(host, port)``."""
    from ..comm.pipe import PipeChannel  # lazy: comm imports ps
    from ..comm.protocol import run_worker_loop
    from ..comm.socket import SocketChannel

    if join_delay_s > 0:
        time.sleep(join_delay_s)  # mid-run joiner: everyone else is training
    # theta0 is NOT pre-seeded here: the join handshake installs the live
    # θ_t (which at t=0 is θ_0 after the float32 wire round-trip) — the
    # same state a reconnecting or late worker would receive.
    node = build_worker(
        worker_id,
        num_workers,
        model_factory(),
        DataLoader(dataset, batch_size, seed=seed),
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
            # survive on the EOF it sees when the link drops.
            os._exit(_CRASH_EXIT_CODE)

    if isinstance(endpoint, tuple):
        channel = SocketChannel.connect(*endpoint)
    else:
        channel = PipeChannel(endpoint)
    if trace:
        # The parent's tracer object is unreachable across the fork (its
        # buffers land in this process's copy), so the child records into
        # its own tracer and ships the spans back as a TelemetryFrame.
        with use_tracer(Tracer()):
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
    def address(self) -> "tuple[str, int]":
        return self.listener.address

    @property
    def waitable(self):
        return self.listener.waitable

    def accept(self):
        channel = self.listener.accept()
        self.accepted.append(channel)
        return channel

    def close(self) -> None:
        self.listener.close()


class RemoteTrainer:
    """PS training with forked worker processes exchanging frame bytes
    with this process over ``transport`` (``"pipe"`` or ``"tcp"``)."""

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
        transport: str = "tcp",
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
        if transport not in _BACKENDS:
            raise ValueError(f"transport must be one of {sorted(_BACKENDS)}, got {transport!r}")
        if bind is not None and transport != "tcp":
            raise ValueError("bind is a tcp setting")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self.method = resolve_method(method)
        self.transport = transport
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
        #: worker id → seconds to hold back before joining (mid-run join)
        self.join_delay_s = dict(join_delay_s) if join_delay_s else {}
        #: serve-loop silence budget; on TCP also the per-channel read deadline
        self.evict_after_s = evict_after_s
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
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
        #: worker id → batches its data stream skips (a restored run's
        #: per-worker update counts)
        self.fast_forward: "dict[int, int]" = {}
        if restore_from is not None:
            header = load_checkpoint(self.server, restore_from)
            self.fast_forward = {
                int(w): int(count) for w, count in header["shards"][0]["updates"].items()
            }
        self.membership = WorkerDirectory(self.server)

    def _tracer(self):
        return self.tracer if self.tracer is not None else current_tracer()

    # ------------------------------------------------------------------
    def listen(self) -> _RecordingListener:
        """Bind the TCP listener workers connect to (``bind``, or
        loopback with an ephemeral port)."""
        from ..comm.socket import SocketListener  # lazy: comm imports ps

        host, port = self.bind if self.bind is not None else ("127.0.0.1", 0)
        return _RecordingListener(
            SocketListener(host, port, tracer=self._tracer(), read_timeout_s=self.evict_after_s)
        )

    def run(self) -> TrainResult:
        """Fork the workers, then :meth:`serve` them to completion."""
        from ..comm.pipe import PipeChannel  # lazy: comm imports ps

        tracer = self._tracer()
        trace = bool(getattr(tracer, "enabled", False))
        channels: "list[PipeChannel]" = []
        listener = self.listen() if self.transport == "tcp" else None
        ctx = mp.get_context("fork")
        procs: "list[mp.Process]" = []
        for w in range(self.num_workers):
            if listener is not None:
                endpoint = listener.address
            else:
                parent, endpoint = ctx.Pipe()
                channels.append(PipeChannel(parent, tracer=tracer))
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    endpoint,
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
                    self.fast_forward.get(w, 0),
                    self.arena,
                    self.arena_dtype,
                    trace,
                ),
                daemon=True,
            )
            proc.start()
            if listener is None:
                endpoint.close()  # the child holds the only live copy
            procs.append(proc)
        return self.serve(channels, listener=listener, workers=procs)

    def serve(
        self,
        channels: "list",
        listener: "_RecordingListener | None" = None,
        workers: "list[mp.Process] | tuple" = (),
    ) -> TrainResult:
        """The server half: serve ``channels`` (pre-wired pipes) and any
        worker ``listener`` accepts until ``num_workers`` workers have
        terminated, then reap ``workers`` and build the result."""
        from ..comm.service import ServerService, serve_channels  # lazy: comm imports ps

        tracer = self._tracer()
        t_start = time.perf_counter()
        loss_curve = Curve("loss_vs_server_step")

        def on_update(updates: int) -> None:
            if updates % self.checkpoint_every == 0:
                save_checkpoint(self.server, self.checkpoint_path)

        try:
            report = serve_channels(
                channels,
                ServerService(self.server, membership=self.membership),
                stats=self.server.stats,
                on_loss=lambda loss: loss_curve.add(len(loss_curve) + 1, loss),
                on_update=on_update if self.checkpoint_every is not None else None,
                listener=listener,
                expected_closes=self.num_workers,
                straggler_timeout_s=self.evict_after_s,
            )
        finally:
            if listener is not None:
                listener.close()
            for proc in workers:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        elapsed = time.perf_counter() - t_start

        # Final checkpoint so a restore picks up from the very end, not
        # the last cadence boundary.
        if self.checkpoint_every is not None:
            save_checkpoint(self.server, self.checkpoint_path)

        # Merge each worker's shipped telemetry into this process's tracer:
        # spans get a per-process lane (proc="worker-N"), metric snapshots
        # join the result's metrics list alongside the server's series.
        shipped_metrics: "list[dict]" = []
        for wid, frame in sorted(report.telemetry.items()):
            shipped_metrics.extend(dict(m) for m in frame.metrics)
            if tracer.enabled:
                tracer.absorb(relabel_records(frame.spans, f"worker-{wid}"))

        acc, loss = evaluate_global_scratch(self.eval_model, self.server, self.dataset)
        stats = self.server.stats
        staleness = self.server.staleness_summary()
        wired = list(channels) + (listener.accepted if listener is not None else [])
        return TrainResult(
            method=self.method.name,
            backend=_BACKENDS[self.transport],
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
            wire_bytes_up=sum(ch.wire_bytes_received for ch in wired),
            wire_bytes_down=sum(ch.wire_bytes_sent for ch in wired),
            makespan_s=elapsed,
            clock="wall",
            server_state_bytes=self.server.server_state_bytes(),
            worker_state_bytes=report.worker_state_bytes,
            errors=list(report.errors),
        )
