"""Pipe channels: real bytes between OS processes, plus the serving loop.

:class:`PipeChannel` wraps one ``multiprocessing`` pipe endpoint; every
frame is byte-serialised through :mod:`repro.comm.frames` (which performs
the float32 wire conversion via the payload codec).  The same class serves
both ends: the child process drives it through the worker protocol loop,
the parent through :func:`serve_pipe_channels`.

:func:`serve_pipe_channels` is the parameter-server side of the process
backend.  The actual multiplexing loop is the transport-agnostic
:func:`repro.comm.service.serve_channels` (pipes, in-proc channels, and
sockets share it); this module keeps the pipe-flavoured entry point and
the :class:`PipeChannel` transport.  A pipe that hits EOF/EPIPE *without*
a close frame is a crashed worker: the loop records the loss of that
worker and carries on, so a worker dying mid-run yields a graceful
partial result instead of a hang.
"""

from __future__ import annotations

from typing import Callable

from ..compression.stats import CompressionStats
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .channel import ChannelClosed
from .frames import Frame, decode_frame, encode_frame
from .service import ServeReport, ServerService, serve_channels

__all__ = ["PipeChannel", "ServeReport", "serve_pipe_channels"]


class PipeChannel:
    """One endpoint of a byte pipe speaking the comm frame format."""

    def __init__(self, connection, tracer: "object | None" = None) -> None:
        #: the underlying ``multiprocessing`` connection (read by ``wait``)
        self.connection = connection
        self.tracer = tracer
        #: actual bytes through the pipe, frame headers included
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _tracer(self):
        return self.tracer if self.tracer is not None else current_tracer()

    def send(self, frame: Frame) -> None:
        self.send_raw(encode_frame(frame))

    def send_raw(self, raw: "bytes | bytearray") -> None:
        """Ship an already-encoded frame."""
        if self._closed:
            raise ChannelClosed("pipe channel is closed")
        tracer = self._tracer()
        if tracer.enabled:
            with tracer.span(obs_names.COMM_SEND, cat="comm", bytes=len(raw)):
                self.connection.send_bytes(raw)
        else:
            self.connection.send_bytes(raw)
        self.wire_bytes_sent += len(raw)

    def recv_raw(self) -> bytes:
        """One encoded frame off the pipe (the serve loop peeks the shard
        id off these bytes before decoding)."""
        if self._closed:
            raise ChannelClosed("pipe channel is closed")
        tracer = self._tracer()
        if tracer.enabled:
            with tracer.span(obs_names.COMM_RECV, cat="comm") as span:
                raw = self.connection.recv_bytes()
                span.set(bytes=len(raw))
        else:
            raw = self.connection.recv_bytes()
        self.wire_bytes_received += len(raw)
        return raw

    def recv(self) -> Frame:
        return decode_frame(self.recv_raw())

    @property
    def waitable(self):
        """What ``multiprocessing.connection.wait`` blocks on."""
        return self.connection

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.connection.close()


def serve_pipe_channels(
    channels: "list[PipeChannel]",
    service: ServerService,
    stats: "CompressionStats | None" = None,
    on_loss: "Callable[[float], None] | None" = None,
    **kwargs: object,
) -> ServeReport:
    """Run the server side of the process backend until all workers close.

    A pipe-flavoured entry point over the transport-agnostic
    :func:`~repro.comm.service.serve_channels` loop.  ``stats`` receives
    the analytic payload byte accounting (upload on every gradient frame,
    download on every reply); ``on_loss`` is called with each gradient
    frame's training loss after the reply is shipped.  Extra keyword
    arguments (``on_update``, ``listener``, …) pass straight through
    to :func:`~repro.comm.service.serve_channels`.
    """
    return serve_channels(channels, service, stats=stats, on_loss=on_loss, **kwargs)
