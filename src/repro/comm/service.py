"""The transport-agnostic server side of every channel.

The accept/route/reply loop lives here once, for every transport:

* :class:`ServerService` — apply one frame, build the reply.  Shared by
  every transport; also the home of the optional membership layer (join /
  leave control frames), so elastic workers behave identically whether
  they arrive over a pipe or a socket.
* :func:`serve_channels` — the multiplexing serve loop, written against
  the :class:`~repro.comm.channel.Channel` contract plus one transport
  hook (``waitable`` — the object ``multiprocessing.connection.wait``
  blocks on, which accepts both pipe connections and sockets).  It
  handles gradient dispatch, telemetry absorption, membership control
  frames, close accounting, crash detection (EOF without a close frame),
  straggler eviction, and elastic accept from a listener.

Routing: every served channel is a byte transport (pipe or socket); the
loop takes ``recv_raw()`` and reads the target shard off the fixed 4-byte
header with :func:`~repro.comm.frames.peek_shard` *before* decoding the
payload — the peeked id, not the decoded frame attribute, is the routing
authority, exactly what the frame header exists for.

One thread does recv → decode → handle → encode → send for every channel;
a sharded server is served by the same loop (whole frames fan out across
the per-shard locks inside ``handle``, shard-addressed frames go to
``handle_shard``).  Per-shard serve threads were measured and lost — see
``docs/performance.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable, Mapping

from ..compression.stats import CompressionStats
from .frames import (
    CloseFrame,
    ControlFrame,
    GradientFrame,
    TelemetryFrame,
    decode_frame,
    peek_shard,
    reply_frame,
)

if TYPE_CHECKING:
    from ..ps.messages import GradientMessage
    from ..ps.server import ParameterServer

__all__ = ["ServerService", "ServeReport", "serve_channels"]


class ServerService:
    """The server side of every channel: apply one frame, build the reply.

    One instance per run, shared by all of that run's channels; thread
    safety is the :class:`~repro.ps.server.ParameterServer` lock's job.

    ``membership`` is the optional elastic-worker directory (e.g.
    :class:`~repro.ps.membership.WorkerDirectory`): when present,
    :meth:`control` routes join/leave frames through it; when absent,
    joins bootstrap directly against the server (same state transition,
    no bookkeeping).
    """

    def __init__(self, server: "ParameterServer", membership: "object | None" = None) -> None:
        self.server = server
        self.membership = membership
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

    def __call__(self, frame: GradientFrame, shard: "int | None" = None):
        """Dispatch one gradient frame; ``shard`` overrides the frame's own
        shard slot when a byte transport already peeked it off the header.
        A frame that does not fit the server's state raises ``ValueError``
        (see :meth:`check`) and changes nothing."""
        shard = getattr(frame, "shard", -1) if shard is None else shard
        self.check(frame.message, shard)
        if shard >= 0:
            # Shard-addressed frame (routed off the header by the
            # transport): dispatch straight to that shard and stamp the
            # reply with the same shard id so the worker can reassemble.
            return reply_frame(
                self.server.handle_shard(shard, frame.message), shard=shard
            )
        return reply_frame(self.server.handle(frame.message))

    def control(self, frame: ControlFrame):
        """Apply one membership control frame.

        ``join`` bootstraps the worker's ``v_k`` from ``M_t`` under the
        (per-shard) server lock and returns the :class:`ModelFrame` reply
        carrying θ_t; ``leave`` deregisters and returns ``None`` (one-way).
        A join with a negative worker id raises ``ValueError``.
        """
        if frame.op == "join":
            if self.membership is not None:
                msg = self.membership.register(frame.worker_id)
            else:
                msg = self.server.bootstrap_worker(frame.worker_id)
            return reply_frame(msg)
        if self.membership is not None:
            self.membership.deregister(frame.worker_id)
        return None

    def register_locks(self, registry) -> None:
        """Enroll every lock this service can acquire in a lock-order
        :class:`~repro.analysis.concurrency.LockRegistry` (the single
        server lock, or — via
        :meth:`~repro.ps.sharded.ShardedParameterServer.register_lock` —
        one entry per shard, plus the membership directory's lock)."""
        self.server.register_lock(registry)
        if self.membership is not None and hasattr(self.membership, "register_lock"):
            self.membership.register_lock(registry)


def _shapes(theta0: "Mapping[str, object]") -> "dict[str, tuple]":
    return {name: theta0[name].shape for name in theta0}


@dataclass
class ServeReport:
    """What the serving loop observed across all worker channels."""

    #: summed final accounting from clean close frames
    samples_processed: int = 0
    worker_state_bytes: int = 0
    #: human-readable crash/error descriptions, one per failed worker
    errors: "list[str]" = field(default_factory=list)
    clean_closes: int = 0
    crashes: int = 0
    #: worker_id → TelemetryFrame shipped before that worker's close
    telemetry: "dict[int, TelemetryFrame]" = field(default_factory=dict)
    #: membership traffic observed by the loop
    joins: int = 0
    leaves: int = 0
    evictions: int = 0
    #: gradient frames applied (drives checkpoint cadence)
    updates: int = 0


def serve_channels(
    channels: "list",
    service: ServerService,
    stats: "CompressionStats | None" = None,
    on_loss: "Callable[[float], None] | None" = None,
    on_update: "Callable[[int], None] | None" = None,
    listener: "object | None" = None,
    expected_closes: "int | None" = None,
    straggler_timeout_s: "float | None" = None,
) -> ServeReport:
    """Serve every channel until ``expected_closes`` workers terminate.

    The one accept/route/reply loop under the process and socket backends:

    * **gradient** frames are routed by the shard id peeked off the raw
      header, dispatched through ``service``, and answered on the same
      channel; ``stats`` records the analytic byte accounting and
      ``on_loss`` sees each frame's training loss after the reply ships.
    * **close** frames settle a worker's final accounting; a channel that
      dies *without* one (EOF / EPIPE), delivers bytes that do not
      decode, sends a frame of a reply kind, a gradient that does not fit
      the server's state (:meth:`ServerService.check`) or a join it
      cannot apply, or cannot take its
      reply is a crash of *that* channel: it is counted, becomes an error
      on the report, and the membership layer deregisters the worker — a
      graceful partial result, never a hang, and never the end of service
      for the other workers.
    * **telemetry** frames are absorbed onto the report (no reply).
    * **control** frames run the membership handshake via
      :meth:`ServerService.control`; a join's ModelFrame reply ships back
      on the worker's channel.
    * ``listener`` (optional) is polled alongside the channels; accepted
      connections join the serve set — elastic workers connect mid-run.
    * ``straggler_timeout_s`` (optional) evicts a channel that has been
      silent for that long: the channel is closed, the eviction recorded
      as an error (partial-result semantics, same as a crash), and the
      membership layer notified.

    ``expected_closes`` defaults to ``len(channels)``; pass the total
    worker count when a listener will deliver some of them later.

    A client may split a step along the server's partition and send it
    as ``num_shards`` shard-addressed sub-frames, back to back, one per
    shard; each goes to ``handle_shard`` as it arrives and the replies —
    stamped with their shard ids — ship together, in arrival order, after
    the last one.  (A client that waits for a sub-frame's reply before
    sending the next sub-frame waits forever; send the step, then read.)

    One update == one worker step: ``report.updates`` (and the ``on_loss``
    / ``on_update`` cadence) counts whole-server frames and, of a split
    step, only the shard-0 sub-frame (every step touches shard 0 exactly
    once).
    """
    report = ServeReport()
    membership = service.membership
    open_channels = {ch.waitable: ch for ch in channels}
    worker_ids: "dict[object, int]" = {}  # waitable → last known worker id
    last_seen = {w: time.monotonic() for w in open_channels}
    expected = len(channels) if expected_closes is None else expected_closes
    terminated = 0
    #: replies to a split step's sub-frames, waiting for the rest of the step
    held: "dict[object, list]" = {}
    poll = None if straggler_timeout_s is None else max(straggler_timeout_s / 4.0, 0.01)

    def _drop(waitable, channel) -> None:
        open_channels.pop(waitable, None)
        last_seen.pop(waitable, None)
        held.pop(waitable, None)
        try:
            channel.close()
        except OSError:
            pass

    def _crash(
        waitable, channel, what: str, reason: str = "crash", claimed: "int | None" = None
    ) -> None:
        # The report names the id the channel used, else the one its last
        # frame claimed; only an id it used is deregistered.
        who = worker_ids.get(waitable)
        named = who if who is not None else claimed
        label = f"worker {named}" if named is not None else "worker"
        report.crashes += 1
        report.errors.append(f"{label} {what}")
        if who is not None and membership is not None:
            membership.deregister(who, reason=reason)
        _drop(waitable, channel)

    while terminated < expected:
        waitables = list(open_channels)
        if listener is not None:
            waitables.append(listener.waitable)
        if not waitables:
            break  # nothing left to wait on; remaining workers never arrived
        ready = wait(waitables, timeout=poll)
        now = time.monotonic()
        for obj in ready:
            if listener is not None and obj is listener.waitable:
                accepted = listener.accept()
                open_channels[accepted.waitable] = accepted
                last_seen[accepted.waitable] = now
                continue
            channel = open_channels[obj]
            last_seen[obj] = now
            try:
                raw = channel.recv_raw()
                frame, shard = decode_frame(raw), peek_shard(raw)
            except (EOFError, OSError):
                _crash(obj, channel, "channel closed without a close frame (crash)")
                terminated += 1
                continue
            except ValueError as exc:
                # Bytes that are not a frame are that peer's failure, not
                # the server's: drop the channel, keep serving the rest.
                _crash(obj, channel, f"sent a malformed frame: {exc} (crash)")
                terminated += 1
                continue
            if isinstance(frame, CloseFrame):
                worker_ids[obj] = frame.worker_id
                if frame.samples_processed is not None:
                    report.samples_processed += frame.samples_processed
                if frame.worker_state_bytes is not None:
                    report.worker_state_bytes += frame.worker_state_bytes
                if frame.error is not None:
                    report.crashes += 1
                    report.errors.append(f"worker {frame.worker_id}: {frame.error}")
                else:
                    report.clean_closes += 1
                _drop(obj, channel)
                terminated += 1
                continue
            if isinstance(frame, TelemetryFrame):
                report.telemetry[frame.worker_id] = frame
                continue  # diagnostic side channel: no reply, channel stays open
            if not isinstance(frame, (ControlFrame, GradientFrame)):
                _crash(obj, channel, f"sent an unexpected {type(frame).__name__} (crash)")
                terminated += 1
                continue
            try:
                if isinstance(frame, ControlFrame):
                    reply = service.control(frame)
                else:
                    reply = service(frame, shard=shard)
            except ValueError as exc:
                # A frame that does not fit the server's state is, like
                # undecodable bytes, that peer's failure: nothing was applied,
                # and the id it claimed is not recorded as the channel's.
                _crash(
                    obj,
                    channel,
                    f"sent a frame the server cannot apply: {exc} (crash)",
                    claimed=frame.worker_id,
                )
                terminated += 1
                continue
            worker_ids[obj] = frame.worker_id
            if isinstance(frame, ControlFrame):
                if frame.op == "join":
                    report.joins += 1
                    try:
                        channel.send(reply)
                    except OSError:
                        _crash(obj, channel, "channel broke during join (crash)")
                        terminated += 1
                else:
                    report.leaves += 1
                continue
            if stats is not None:
                stats.record_upload(frame.nbytes(), frame.dense_nbytes())
                stats.record_download(reply.nbytes(), reply.dense_nbytes())
            # A step split into sub-frames is answered once its last
            # sub-frame is handled: both ends write blocking and a sub-frame
            # outgrows the pipe buffer, so a reply begun while the peer is
            # still writing the next sub-frame would never finish.
            replies = held.pop(obj, [])
            replies.append((reply, shard, frame.loss))
            if shard >= 0 and len(replies) < service.num_shards:
                held[obj] = replies
                continue
            try:
                for reply, _, _ in replies:
                    channel.send(reply)
            except OSError:
                _crash(obj, channel, "channel broke while sending the reply (crash)")
                terminated += 1
                continue
            for _, reply_shard, loss in replies:
                if reply_shard > 0:
                    continue  # the step's shard-0 sub-frame is its one accounting token
                report.updates += 1
                if on_loss is not None:
                    on_loss(loss)
                if on_update is not None:
                    on_update(report.updates)
        if straggler_timeout_s is not None:
            cutoff = time.monotonic() - straggler_timeout_s
            for obj in [w for w, seen in last_seen.items() if seen < cutoff]:
                report.evictions += 1
                _crash(
                    obj,
                    open_channels[obj],
                    f"evicted as straggler (silent > {straggler_timeout_s:g}s)",
                    reason="evicted",
                )
                terminated += 1
    return report
