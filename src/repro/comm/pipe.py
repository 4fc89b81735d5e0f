"""Pipe channels: real bytes between OS processes.

:class:`PipeChannel` wraps one ``multiprocessing`` pipe endpoint; every
frame is byte-serialised through :mod:`repro.comm.frames` (which performs
the float32 wire conversion via the payload codec).  The same class serves
both ends: the child process drives it through the worker protocol loop,
the parent through the transport-agnostic
:func:`repro.comm.service.serve_channels`.  A pipe that hits EOF/EPIPE
*without* a close frame is a crashed worker: the loop records the loss of
that worker and carries on, so a worker dying mid-run yields a graceful
partial result instead of a hang.  ``send_raw`` / ``recv_raw`` emit
``comm.send`` / ``comm.recv`` spans to the ambient
:func:`repro.obs.current_tracer`.
"""

from __future__ import annotations

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .channel import ChannelClosed
from .frames import Frame, decode_frame, encode_frame

__all__ = ["PipeChannel"]


class PipeChannel:
    """One endpoint of a byte pipe speaking the comm frame format."""

    def __init__(self, connection) -> None:
        #: the underlying ``multiprocessing`` connection (read by ``wait``)
        self.connection = connection
        #: actual bytes through the pipe, frame headers included
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        self.send_raw(encode_frame(frame))

    def send_raw(self, raw: "bytes | bytearray") -> None:
        """Ship an already-encoded frame."""
        if self._closed:
            raise ChannelClosed("pipe channel is closed")
        with current_tracer().span(obs_names.COMM_SEND, cat="comm", bytes=len(raw)):
            self.connection.send_bytes(raw)
        self.wire_bytes_sent += len(raw)

    def recv_raw(self) -> bytes:
        """One encoded frame off the pipe (the serve loop peeks the shard
        id off these bytes before decoding)."""
        if self._closed:
            raise ChannelClosed("pipe channel is closed")
        with current_tracer().span(obs_names.COMM_RECV, cat="comm") as span:
            raw = self.connection.recv_bytes()
            span.set(bytes=len(raw))
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

