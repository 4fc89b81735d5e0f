"""The transport-agnostic server side of every channel.

* :class:`ServerService` — apply one frame, build the reply; also the
  home of the membership directory, shared by every transport.
* :func:`serve_channels` — the driver of the one serve loop: it waits on
  pipes and sockets alike, feeds what they read to a
  :class:`~repro.comm.serve_core.ServeCore`, and sends and closes what
  the core returns.  One thread serves every channel, sharded or not;
  per-shard serve threads lost (``docs/performance.md``).
"""

from __future__ import annotations

import math
import time
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable, Mapping

from ..ps.membership import WorkerDirectory
from .frames import ControlFrame, GradientFrame, reply_frame
from .serve_core import ServeCore, ServeReport

if TYPE_CHECKING:
    from ..compression.stats import CompressionStats
    from ..ps.messages import GradientMessage
    from ..ps.server import ParameterServer

__all__ = ["ServerService", "ServeReport", "serve_channels"]


class ServerService:
    """The server side of every channel: apply one frame, build the reply.

    One instance per run, shared by all of that run's channels; thread
    safety is the :class:`~repro.ps.server.ParameterServer` lock's job.

    ``membership`` is the elastic-worker directory join/leave frames go
    through; a :class:`~repro.ps.membership.WorkerDirectory` over
    ``server`` is built when none is passed.
    """

    def __init__(self, server: "ParameterServer", membership: "WorkerDirectory | None" = None) -> None:
        self.server = server
        self.membership = membership if membership is not None else WorkerDirectory(server)
        nodes = getattr(server, "shards", None)
        #: layer name → shape a whole-server frame may carry, and the same
        #: per shard ([] unsharded); read off θ0, which needs no lock
        self.layers = dict(server.partition.shapes) if nodes else _shapes(server.theta0)
        self.shard_layers = [_shapes(node.theta0) for node in nodes or ()]
        #: shard-addressed sub-frames that make one split step
        self.num_shards = max(1, len(self.shard_layers))

    def check(self, message: "GradientMessage", shard: int = -1) -> None:
        """Raise ``ValueError`` unless ``message`` fits the server's state.

        A decodable frame can still name a worker the server holds no
        state for (one that never joined, at or above its worker count),
        name a layer the server does not hold, carry a layer of the wrong
        shape, or index past a layer's end; each would fail half-way
        through an update.  Checked before any state changes, so a bad
        frame costs only the channel that sent it.
        """
        workers = self.server.num_workers
        if not 0 <= message.worker_id < workers:
            raise ValueError(f"worker {message.worker_id} is unknown to a server of {workers} workers")
        if shard >= 0:
            if shard >= len(self.shard_layers):
                raise ValueError(f"shard {shard} out of range for {len(self.shard_layers)} shards")
            layers = self.shard_layers[shard]
        else:
            layers = self.layers
        for name, layer in message.payload.items():
            shape = layers.get(name)
            if shape is None:
                raise ValueError(f"unknown layer {name!r}")
            if tuple(layer.shape) != shape:
                raise ValueError(f"layer {name!r} has shape {tuple(layer.shape)}, server holds {shape}")
            indices = getattr(layer, "indices", None)
            if indices is not None and len(indices) and not (
                0 <= indices.min() and indices.max() < math.prod(shape)
            ):
                raise ValueError(f"layer {name!r} indexes outside its {math.prod(shape)} elements")

    def __call__(self, frame: GradientFrame):
        """Dispatch one gradient frame to the shard its header names (or
        the whole server) and stamp the reply with the same shard id, so a
        client that split its step reassembles by stamp.  A frame that
        does not fit the server's state raises ``ValueError`` (see
        :meth:`check`) and changes nothing."""
        shard = frame.shard
        self.check(frame.message, shard)
        if shard >= 0:
            return reply_frame(self.server.handle_shard(shard, frame.message), shard=shard)
        return reply_frame(self.server.handle(frame.message))

    def control(self, frame: ControlFrame):
        """Apply one membership control frame.

        ``join`` bootstraps the worker's ``v_k`` from ``M_t`` under the
        (per-shard) server lock and returns the :class:`ModelFrame` reply
        carrying θ_t; ``leave`` deregisters and returns ``None`` (one-way).
        A join is accepted for an id the server already holds or the next
        one (``0 … num_workers``): any other id raises ``ValueError``
        before the server grows one model-sized ``v_k`` per skipped id.
        """
        if frame.op == "join":
            workers = self.server.num_workers
            if not 0 <= frame.worker_id <= workers:
                raise ValueError(
                    f"join of worker {frame.worker_id}: a server of {workers} workers "
                    f"admits ids 0..{workers}"
                )
            return reply_frame(self.membership.register(frame.worker_id))
        self.membership.deregister(frame.worker_id)
        return None

    def register_locks(self, registry) -> None:
        """Enroll the server's lock (one per shard when sharded) and the
        directory's in a lock-order :class:`~repro.analysis.concurrency.LockRegistry`."""
        self.server.register_lock(registry)
        self.membership.register_lock(registry)


def _shapes(theta0: "Mapping[str, object]") -> "dict[str, tuple]":
    return {name: theta0[name].shape for name in theta0}


def serve_channels(
    channels: "list",
    service: ServerService,
    stats: "CompressionStats | None" = None,
    on_update: "Callable[[float], None] | None" = None,
    listener: "object | None" = None,
    expected_closes: "int | None" = None,
    straggler_timeout_s: "float | None" = None,
) -> ServeReport:
    """Serve every channel until ``expected_closes`` channels have ended.

    The driver of the one serve loop under the process and socket
    backends: it reads, sends and closes, and
    :class:`~repro.comm.serve_core.ServeCore` decides.  A failed read
    reaches the core as ``eof``, a failed send as ``broken``; each channel
    the core ends is closed here and its wire bytes added to the report.

    * ``stats`` records each gradient's analytic byte accounting, and
      ``on_update`` sees each step's training loss after its reply ships.
    * ``listener`` (optional) is polled alongside the channels; accepted
      connections join the serve set — elastic workers connect mid-run.
    * ``straggler_timeout_s`` (optional) evicts a channel silent that long.

    ``expected_closes`` defaults to ``len(channels)``; pass the total
    worker count when a listener will deliver some of them later.
    """
    core = ServeCore(service, stats, on_update, straggler_timeout_s)
    report = core.report
    open_channels: "dict[object, object]" = {}

    def add(channel) -> None:
        open_channels[channel.waitable] = channel
        core.add(channel.waitable, time.monotonic())

    def carry_out(output) -> None:
        sends, closes = output
        for key, frame in sends:
            if key in open_channels:  # not closed by an earlier failed send
                try:
                    open_channels[key].send(frame)
                except OSError:
                    carry_out(core.broken(key))
        for key in closes:
            channel = open_channels.pop(key)
            report.wire_bytes_up += channel.wire_bytes_received
            report.wire_bytes_down += channel.wire_bytes_sent
            try:
                channel.close()
            except OSError:
                pass

    def receive(key):  # returning frees the frame's buffer before the next read allocates one
        now = time.monotonic()
        try:
            raw = open_channels[key].recv_raw()
        except (EOFError, OSError):
            return core.eof(key)
        return core.record(key, raw, now)

    for channel in channels:
        add(channel)
    expected = len(channels) if expected_closes is None else expected_closes
    poll = None if straggler_timeout_s is None else max(straggler_timeout_s / 4.0, 0.01)
    while core.ended < expected:
        waitables = list(open_channels)
        if listener is not None:
            waitables.append(listener.waitable)
        if not waitables:
            break  # nothing left to wait on; remaining workers never arrived
        for key in wait(waitables, timeout=poll):
            if listener is not None and key is listener.waitable:
                add(listener.accept())
            else:
                carry_out(receive(key))
        carry_out(core.tick(time.monotonic()))
    return report
