"""Parameter-server training with one OS process per worker (the "process"
and "socket" execution backends).

The closest offline stand-in for the paper's multi-machine deployment:
workers are separate OS processes (true parallel gradient computation, no
GIL sharing), and every exchange travels as *actual bytes* in the typed
frame format of :mod:`repro.comm.frames` — the same ``encode()``/
``decode()`` path the paper's gloo transport performs.  ``transport``
picks the link and nothing else:

* ``"pipe"`` — each worker inherits its end of a pre-made
  ``multiprocessing.Pipe()`` (an ``AF_UNIX`` socketpair carrying the
  same length-prefixed stream record as TCP);
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
  loop's silence timeout and, on either link, the per-channel read
  deadline, so a peer that stalls mid-frame is evicted like a silent one.
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
* BatchNorm running statistics stay local to each worker process and are
  not part of the exchange; the final evaluation re-estimates them on
  θ0 + M from training batches
  (:func:`~repro.exec.common.evaluate_global_scratch`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from contextlib import nullcontext

from ..comm.pipe import PipeChannel
from ..comm.protocol import run_worker_loop
from ..comm.service import ServerService, serve_channels
from ..comm.socket import SocketChannel, SocketListener
from ..core.layerops import parameter_views
from ..data.loader import DataLoader
from ..metrics.curves import Curve
from ..obs.span import relabel_records
from ..obs.tracer import Tracer, current_tracer, use_tracer
from ..ps.checkpoint import load_checkpoint, save_checkpoint
from ..ps.membership import WorkerDirectory
from ..ps.worker import WorkerNode
from .common import (
    build_server,
    build_worker,
    evaluate_global_scratch,
    resolve_hyper,
    resolve_method,
    resolve_schedule,
)
from .config import RunConfig
from .result import TrainResult

__all__ = ["RemoteTrainer", "build_remote_worker"]

#: transport → the backend name a result reports
_BACKENDS = {"pipe": "process", "tcp": "socket"}

#: exit code of a hard-crashed (fail_at) worker — never a normal exit
_CRASH_EXIT_CODE = 17


def build_remote_worker(config: RunConfig, worker_id: int, fast_forward: int = 0) -> WorkerNode:
    """Worker ``worker_id`` of ``config`` as every remote transport builds it.

    θ0 is NOT pre-seeded: the join handshake installs the live θ_t (which
    at t=0 is θ_0 after the float32 wire round-trip) — the same state a
    reconnecting or late worker receives.  A restored run burns the
    ``fast_forward`` batches the pre-checkpoint run consumed, so the
    continued stream picks up exactly where the original left off.
    """
    hyper = resolve_hyper(config.hyper)
    node = build_worker(
        worker_id,
        config.num_workers,
        config.model_factory(),
        DataLoader(config.dataset, config.batch_size, seed=config.seed),
        resolve_method(config.method),
        hyper,
        resolve_schedule(config.schedule, hyper),
        theta0=None,
        arena=config.arena,
        arena_dtype=config.arena_dtype,
    )
    for _ in range(fast_forward):
        node.batches.next_batch()
    node.iteration = fast_forward
    return node


def _worker_main(
    endpoint,
    config: RunConfig,
    worker_id: int,
    fail_at: "int | None",
    join_delay_s: float,
    fast_forward: int,
) -> None:
    """One worker process: ``endpoint`` is its end of a pipe or the
    server's ``(host, port)``."""
    if join_delay_s > 0:
        time.sleep(join_delay_s)  # mid-run joiner: everyone else is training
    node = build_remote_worker(config, worker_id, fast_forward)

    def crash_hook(i: int) -> None:
        if fail_at is not None and i >= fail_at:
            # Hard crash: no leave, no close frame — the server must
            # survive on the EOF it sees when the link drops.
            os._exit(_CRASH_EXIT_CODE)

    if isinstance(endpoint, tuple):
        channel = SocketChannel.connect(*endpoint)
    else:
        channel = PipeChannel(endpoint)
    # The parent's tracer object is unreachable across the fork (its
    # buffers land in this process's copy), so a traced child records into
    # its own tracer, whose spans the loop ships back as a TelemetryFrame.
    traced = use_tracer(Tracer()) if current_tracer().enabled else nullcontext()
    with traced:
        run_worker_loop(
            node, channel, config.iterations_per_worker(), on_iteration=crash_hook
        )


class RemoteTrainer:
    """PS training with forked worker processes exchanging frame bytes
    with this process over ``transport`` (``"pipe"`` or ``"tcp"``)."""

    def __init__(self, config: RunConfig, transport: str) -> None:
        if transport not in _BACKENDS:
            raise ValueError(f"transport must be one of {sorted(_BACKENDS)}, got {transport!r}")
        if config.bind is not None and transport != "tcp":
            raise ValueError("bind is a tcp setting")
        self.config = config
        self.transport = transport
        self.method = resolve_method(config.method)
        self.hyper = resolve_hyper(config.hyper)

        #: the reference model: θ0 is read from it, and the final
        #: evaluation uses it as scratch for θ0 + M
        self.eval_model = config.model_factory()
        self.server = build_server(
            self.method,
            parameter_views(self.eval_model),
            config.num_workers,
            self.hyper,
            secondary_compression=config.secondary_compression,
            staleness_damping=config.staleness_damping,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
            num_shards=config.num_shards,
        )
        #: worker id → batches its data stream skips (a restored run's
        #: per-worker update counts)
        self.fast_forward: "dict[int, int]" = {}
        if config.restore_from is not None:
            header = load_checkpoint(self.server, config.restore_from)
            self.fast_forward = {
                int(w): int(count) for w, count in header["shards"][0]["updates"].items()
            }
        self.membership = WorkerDirectory(self.server)

    # ------------------------------------------------------------------
    def listen(self) -> SocketListener:
        """Bind the TCP listener workers connect to (``config.bind``, or
        loopback with an ephemeral port)."""
        bind = self.config.bind
        host, port = bind if bind is not None else ("127.0.0.1", 0)
        return SocketListener(host, port, read_timeout_s=self.config.evict_after_s)

    def run(self) -> TrainResult:
        """Fork the workers, then :meth:`serve` them to completion."""
        config = self.config
        fail_at = config.fail_at or {}
        join_delay_s = config.join_delay_s or {}
        channels: "list[PipeChannel]" = []
        listener = self.listen() if self.transport == "tcp" else None
        ctx = mp.get_context("fork")
        procs: "list[mp.Process]" = []
        for w in range(config.num_workers):
            if listener is not None:
                endpoint = listener.address
            else:
                parent, endpoint = ctx.Pipe()
                channels.append(PipeChannel(parent, read_timeout_s=config.evict_after_s))
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    endpoint,
                    config,
                    w,
                    fail_at.get(w),
                    join_delay_s.get(w, 0.0),
                    self.fast_forward.get(w, 0),
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
        listener: "SocketListener | None" = None,
        workers: "list[mp.Process] | tuple" = (),
    ) -> TrainResult:
        """The server half: serve ``channels`` (pre-wired pipes) and any
        worker ``listener`` accepts until ``num_workers`` workers have
        terminated, then reap ``workers`` and build the result."""
        config = self.config
        t_start = time.perf_counter()
        loss_curve = Curve("loss_vs_server_step")

        def on_update(loss: float) -> None:
            updates = len(loss_curve) + 1
            loss_curve.add(updates, loss)
            if config.checkpoint_every is not None and updates % config.checkpoint_every == 0:
                save_checkpoint(self.server, config.checkpoint_path)

        try:
            report = serve_channels(
                channels,
                ServerService(self.server, membership=self.membership),
                stats=self.server.stats,
                on_update=on_update,
                listener=listener,
                expected_closes=config.num_workers,
                straggler_timeout_s=config.evict_after_s,
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
        if config.checkpoint_every is not None:
            save_checkpoint(self.server, config.checkpoint_path)

        # Merge each worker's shipped spans into this process's tracer, on
        # a per-process lane (proc="worker-N").
        tracer = current_tracer()
        if tracer.enabled:
            for wid, frame in sorted(report.telemetry.items()):
                tracer.absorb(relabel_records(frame.spans, f"worker-{wid}"))

        acc, loss = evaluate_global_scratch(
            self.eval_model, self.server, config.dataset, config.batch_size
        )
        stats = self.server.stats
        staleness = self.server.staleness_summary()
        return TrainResult(
            method=self.method.name,
            backend=_BACKENDS[self.transport],
            num_workers=config.num_workers,
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
            metrics=self.server.metrics.snapshot(),
            upload_bytes=stats.upload_bytes,
            download_bytes=stats.download_bytes,
            upload_dense_bytes=stats.upload_dense_bytes,
            download_dense_bytes=stats.download_dense_bytes,
            wire_bytes_up=report.wire_bytes_up,
            wire_bytes_down=report.wire_bytes_down,
            makespan_s=elapsed,
            clock="wall",
            server_state_bytes=self.server.server_state_bytes(),
            worker_state_bytes=report.worker_state_bytes,
            errors=list(report.errors),
        )
