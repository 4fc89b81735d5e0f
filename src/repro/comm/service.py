"""The transport-agnostic server side of every channel.

The accept/route/reply loop lives here once, for every transport:

* :class:`ServerService` — apply one frame, build the reply.  Shared by
  every transport; also the home of the membership directory (join /
  leave control frames), so elastic workers behave identically whether
  they arrive over a pipe or a socket.
* :func:`serve_channels` — the multiplexing serve loop, written against
  the :class:`~repro.comm.channel.Channel` contract plus one transport
  hook (``waitable`` — the object ``multiprocessing.connection.wait``
  blocks on, which accepts both pipe connections and sockets).  A decoded
  frame's kind picks its handler from one table (gradient, control,
  telemetry, close); every way a channel ends — a close frame, EOF,
  bytes that are not a frame, a frame the server cannot apply, a reply
  that cannot be sent, straggler eviction — goes through one function,
  :meth:`_ServeLoop.end`.

Routing: a gradient frame's shard id is the one :func:`~repro.comm.
frames.decode_frame` read off its 4-byte header (``frame.shard``); a
shard-addressed frame goes to ``handle_shard``, a whole frame to
``handle``.

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
from ..ps.membership import WorkerDirectory
from .frames import (
    CloseFrame,
    ControlFrame,
    GradientFrame,
    TelemetryFrame,
    decode_frame,
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
        """Enroll every lock this service can acquire in a lock-order
        :class:`~repro.analysis.concurrency.LockRegistry` (the single
        server lock, or — via
        :meth:`~repro.ps.sharded.ShardedParameterServer.register_lock` —
        one entry per shard, plus the membership directory's lock)."""
        self.server.register_lock(registry)
        self.membership.register_lock(registry)


def _shapes(theta0: "Mapping[str, object]") -> "dict[str, tuple]":
    return {name: theta0[name].shape for name in theta0}


@dataclass
class ServeReport:
    """What the serving loop observed across all worker channels.

    Who joined and left, and why anyone departed, is the membership
    directory's record (:class:`~repro.ps.membership.WorkerDirectory`);
    every channel the loop ended counts once, as ``clean_closes`` or as
    one entry of ``errors``.
    """

    #: summed final accounting from close frames
    samples_processed: int = 0
    worker_state_bytes: int = 0
    #: one description per channel that ended without a clean close
    errors: "list[str]" = field(default_factory=list)
    clean_closes: int = 0
    #: worker_id → TelemetryFrame shipped before that worker's close
    telemetry: "dict[int, TelemetryFrame]" = field(default_factory=dict)
    evictions: int = 0
    #: gradient steps applied (one per whole frame or split step)
    updates: int = 0
    #: actual bytes through the channels the loop ended, frame headers
    #: included: received from the workers (up) and sent to them (down)
    wire_bytes_up: int = 0
    wire_bytes_down: int = 0


class _ServeLoop:
    """The state of one :func:`serve_channels` call, keyed by waitable."""

    def __init__(
        self,
        service: ServerService,
        stats: "CompressionStats | None",
        on_update: "Callable[[float], None] | None",
    ) -> None:
        self.service = service
        self.stats = stats
        self.on_update = on_update
        self.report = ServeReport()
        self.open: "dict[object, object]" = {}  # waitable → channel
        self.last_seen: "dict[object, float]" = {}
        #: waitable → the worker id the channel joined or sent a step as
        self.worker_ids: "dict[object, int]" = {}
        #: replies to a split step's sub-frames, waiting for the rest of the step
        self.held: "dict[object, list]" = {}
        #: channels ended so far, however they ended
        self.ended = 0
        #: frame kind → handler; any other kind (a reply) ends the channel
        self.handlers = {
            GradientFrame: self._gradient,
            ControlFrame: self._control,
            TelemetryFrame: self._telemetry,
            CloseFrame: self._close,
        }

    def add(self, channel) -> None:
        self.open[channel.waitable] = channel
        self.last_seen[channel.waitable] = time.monotonic()

    def end(
        self, key, error: "str | None" = None, reason: str = "crash", claimed: "int | None" = None
    ) -> None:
        """End one channel, whichever way it ended.

        ``error=None`` is a clean close.  Otherwise the report gets one
        line: the worker's label — the id the channel used, else the one
        its last frame ``claimed`` — then ``error``, which starts with its
        own separator (``" sent …"`` for what the server saw, ``": …"``
        for what the worker reported).  Only an id the channel used is
        deregistered (with ``reason``), so a peer cannot end an honest
        worker by naming it.
        """
        channel = self.open.pop(key)
        self.last_seen.pop(key, None)
        self.held.pop(key, None)
        who = self.worker_ids.pop(key, None)
        report = self.report
        if error is None:
            report.clean_closes += 1
        else:
            named = who if who is not None else claimed
            report.errors.append(("worker" if named is None else f"worker {named}") + error)
            if who is not None:
                self.service.membership.deregister(who, reason=reason)
        report.wire_bytes_up += channel.wire_bytes_received
        report.wire_bytes_down += channel.wire_bytes_sent
        try:
            channel.close()
        except OSError:
            pass
        self.ended += 1

    def receive(self, key) -> None:
        """Read one frame off a ready channel and hand it to its kind's handler."""
        channel = self.open[key]
        self.last_seen[key] = time.monotonic()
        try:
            frame = decode_frame(channel.recv_raw())
        except (EOFError, OSError):
            self.end(key, " channel closed without a close frame (crash)")
            return
        except ValueError as exc:
            # Bytes that are not a frame are that peer's failure, not the
            # server's: end the channel, keep serving the rest.
            self.end(key, f" sent a malformed frame: {exc} (crash)")
            return
        handler = self.handlers.get(type(frame))
        if handler is None:
            self.end(key, f" sent an unexpected {type(frame).__name__} (crash)")
            return
        handler(key, channel, frame)

    def evict_stragglers(self, timeout_s: float) -> None:
        cutoff = time.monotonic() - timeout_s
        for key in [k for k, seen in self.last_seen.items() if seen < cutoff]:
            self.report.evictions += 1
            self.end(key, f" evicted as straggler (silent > {timeout_s:g}s)", reason="evicted")

    def _reject(self, key, frame, exc: ValueError) -> None:
        # A frame that does not fit the server's state is, like undecodable
        # bytes, that peer's failure: nothing was applied, and the id it
        # claimed is not recorded as the channel's.
        self.end(key, f" sent a frame the server cannot apply: {exc} (crash)", claimed=frame.worker_id)

    # -- one handler per frame kind -------------------------------------
    def _gradient(self, key, channel, frame: GradientFrame) -> None:
        try:
            reply = self.service(frame)
        except ValueError as exc:
            self._reject(key, frame, exc)
            return
        self.worker_ids[key] = frame.worker_id
        if self.stats is not None:
            self.stats.record_upload(frame.nbytes(), frame.dense_nbytes())
            self.stats.record_download(reply.nbytes(), reply.dense_nbytes())
        # A step split into sub-frames is answered once its last sub-frame
        # is handled: both ends write blocking and a sub-frame outgrows the
        # pipe buffer, so a reply begun while the peer is still writing the
        # next sub-frame would never finish.
        replies = self.held.pop(key, [])
        replies.append((reply, frame.loss))
        if frame.shard >= 0 and len(replies) < self.service.num_shards:
            self.held[key] = replies
            return
        try:
            for reply, _ in replies:
                channel.send(reply)
        except OSError:
            self.end(key, " channel broke while sending the reply (crash)")
            return
        for reply, loss in replies:
            if reply.shard > 0:
                continue  # the step's shard-0 sub-frame is its one accounting token
            self.report.updates += 1
            if self.on_update is not None:
                self.on_update(loss)

    def _control(self, key, channel, frame: ControlFrame) -> None:
        try:
            reply = self.service.control(frame)
        except ValueError as exc:
            self._reject(key, frame, exc)
            return
        self.worker_ids[key] = frame.worker_id
        if reply is None:
            return  # a leave is one-way
        try:
            channel.send(reply)
        except OSError:
            self.end(key, " channel broke during join (crash)")

    def _telemetry(self, key, channel, frame: TelemetryFrame) -> None:
        # diagnostic side channel: no reply, the channel stays open
        self.report.telemetry[frame.worker_id] = frame

    def _close(self, key, channel, frame: CloseFrame) -> None:
        report = self.report
        if frame.samples_processed is not None:
            report.samples_processed += frame.samples_processed
        if frame.worker_state_bytes is not None:
            report.worker_state_bytes += frame.worker_state_bytes
        self.end(key, None if frame.error is None else f": {frame.error}", claimed=frame.worker_id)


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

    The one accept/route/reply loop under the process and socket backends.
    Each frame's kind picks its handler:

    * **gradient** frames are dispatched through ``service`` (to the shard
      their header names, if any) and answered on the same channel;
      ``stats`` records the analytic byte accounting and ``on_update``
      sees each step's training loss after its reply ships.
    * **control** frames run the membership handshake via
      :meth:`ServerService.control`; a join's ModelFrame reply ships back
      on the worker's channel.
    * **telemetry** frames are absorbed onto the report (no reply).
    * **close** frames settle a worker's final accounting and end the
      channel — cleanly, or as an error if the frame carries one.

    Any other ending is that channel's crash: EOF / EPIPE without a close
    frame, bytes that do not decode, a frame of a reply kind, a gradient
    that does not fit the server's state (:meth:`ServerService.check`) or
    a join it cannot apply, or a reply that cannot be sent.  It becomes
    an error on the report and the membership directory deregisters the
    worker — a graceful partial result, never a hang, and never the end
    of service for the other workers.

    * ``listener`` (optional) is polled alongside the channels; accepted
      connections join the serve set — elastic workers connect mid-run.
    * ``straggler_timeout_s`` (optional) evicts a channel that has been
      silent for that long, through the same ending (reason "evicted").

    ``expected_closes`` defaults to ``len(channels)``; pass the total
    worker count when a listener will deliver some of them later.

    A client may split a step along the server's partition and send it
    as ``num_shards`` shard-addressed sub-frames, back to back, one per
    shard; each goes to ``handle_shard`` as it arrives and the replies —
    stamped with their shard ids — ship together, in arrival order, after
    the last one.  (A client that waits for a sub-frame's reply before
    sending the next sub-frame waits forever; send the step, then read.)

    One update == one worker step: ``report.updates`` (and the
    ``on_update`` cadence) counts whole-server frames and, of a split
    step, only the shard-0 sub-frame (every step touches shard 0 exactly
    once).
    """
    loop = _ServeLoop(service, stats, on_update)
    for channel in channels:
        loop.add(channel)
    expected = len(channels) if expected_closes is None else expected_closes
    poll = None if straggler_timeout_s is None else max(straggler_timeout_s / 4.0, 0.01)
    while loop.ended < expected:
        waitables = list(loop.open)
        if listener is not None:
            waitables.append(listener.waitable)
        if not waitables:
            break  # nothing left to wait on; remaining workers never arrived
        for key in wait(waitables, timeout=poll):
            if listener is not None and key is listener.waitable:
                loop.add(listener.accept())
            else:
                loop.receive(key)
        if straggler_timeout_s is not None:
            loop.evict_stragglers(straggler_timeout_s)
    return loop.report
