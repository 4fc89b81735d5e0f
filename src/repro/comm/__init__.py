"""repro.comm — one typed channel layer under all four backends.

Every worker↔server exchange in the repo crosses a :class:`Channel`
speaking the typed frame vocabulary of :mod:`repro.comm.frames`:

* **process** — :class:`PipeChannel` (real bytes over the socketpair
  of a ``multiprocessing.Pipe()``);
* **socket** — :class:`SocketChannel` + :class:`SocketListener` (real
  bytes over TCP, loopback-ephemeral by default for CI);
* **simulated / sync** — :class:`SimTransport` (frames cost virtual link
  time on the paper's modelled testbed).

Each side of the protocol is a sans-I/O core and its driver.  The
worker's, :class:`~repro.comm.session.WorkerSession`, builds the join,
upload and closing frames and checks each reply; ``run_worker_loop``
drives it over pipes and sockets, the simulated and sync engines over
:class:`SimTransport`.  The server's, :class:`~repro.comm.serve_core.ServeCore`,
holds a handler per frame kind, the one ending of a channel and the one
binding of a channel to a worker id (one open channel per id); it is fed
frames, EOFs, failed sends and clock ticks, and answers with the frames
to send and the channels to close.  ``serve_channels`` drives it for
:class:`repro.exec.RemoteTrainer`; the shared ``ServerService`` applies
frames, and its :class:`~repro.ps.membership.WorkerDirectory` records who
joined and left.

The channel layer owns byte accounting and ``comm.send`` / ``comm.recv``
obs spans, so ``TrainResult`` byte fields and traces mean the same thing
on every substrate.  See ``docs/comm.md`` for the frame schema and the
channel contract.
"""

from . import channel, frames, pipe, protocol, service, session, sim, socket
from .channel import Channel, ChannelClosed
from .frames import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    FRAME_MAGIC,
    KIND_CLOSE,
    KIND_CONTROL,
    KIND_DIFF,
    KIND_GRADIENT,
    KIND_MODEL,
    KIND_TELEMETRY,
    CloseFrame,
    ControlFrame,
    DiffFrame,
    Frame,
    GradientFrame,
    ModelFrame,
    TelemetryFrame,
    decode_frame,
    encode_frame,
    frame_segments,
    peek_kind,
    reply_frame,
)
from .pipe import PipeChannel
from .protocol import run_worker_loop
from .service import ServeReport, ServerService, serve_channels
from .session import WorkerSession
from .sim import SimTransfer, SimTransport
from .socket import (
    ChannelProtocolError,
    ChannelTimeout,
    SocketChannel,
    SocketListener,
)

__all__ = [
    "channel",
    "frames",
    "pipe",
    "protocol",
    "service",
    "session",
    "sim",
    "socket",
    "FRAME_MAGIC",
    "Frame",
    "GradientFrame",
    "DiffFrame",
    "ModelFrame",
    "CloseFrame",
    "TelemetryFrame",
    "ControlFrame",
    "CONTROL_JOIN",
    "CONTROL_LEAVE",
    "KIND_GRADIENT",
    "KIND_DIFF",
    "KIND_MODEL",
    "KIND_CLOSE",
    "KIND_TELEMETRY",
    "KIND_CONTROL",
    "encode_frame",
    "frame_segments",
    "decode_frame",
    "peek_kind",
    "reply_frame",
    "Channel",
    "ChannelClosed",
    "ChannelProtocolError",
    "ChannelTimeout",
    "ServerService",
    "PipeChannel",
    "ServeReport",
    "serve_channels",
    "SocketChannel",
    "SocketListener",
    "SimTransfer",
    "SimTransport",
    "WorkerSession",
    "run_worker_loop",
]
