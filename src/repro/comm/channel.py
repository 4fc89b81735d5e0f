"""The ``Channel`` contract and the in-process implementation.

A channel is one worker's duplex connection to the parameter server.  The
worker side is three calls — :meth:`~Channel.send`, :meth:`~Channel.recv`,
:meth:`~Channel.close` — and the server side is a *service*: a callable
``GradientFrame -> DiffFrame | ModelFrame``.  Every backend supplies its
own transport (same-thread dispatch, OS pipes, virtual links) but they all
speak :mod:`repro.comm.frames` and account bytes identically:

* the **server-side** endpoint of a channel records analytic payload bytes
  (``frame.nbytes()`` / ``frame.dense_nbytes()``) into one
  :class:`~repro.compression.stats.CompressionStats` sink — the numbers
  ``TrainResult`` reports on every backend;
* channels emit ``comm.send`` / ``comm.recv`` spans to the ambient
  :func:`repro.obs.current_tracer` so traces show the wire on every
  substrate.

:class:`InProcChannel` is the threaded backend's channel: ``send()``
dispatches to the service synchronously on the calling thread, preserving
the genuine HOGWILD contention on the server lock.  Its *wire-fidelity*
mode round-trips every frame through the real byte codec, so fast
in-process tests exercise the exact byte path (float32 values and all)
that the process backend ships over OS pipes.
"""

from __future__ import annotations

from typing import Protocol

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .frames import (
    CloseFrame,
    ControlFrame,
    Frame,
    GradientFrame,
    TelemetryFrame,
    decode_frame,
    encode_frame,
)

__all__ = ["Channel", "ChannelClosed", "InProcChannel"]


class ChannelClosed(RuntimeError):
    """Raised when using a channel after it was closed."""


class Channel(Protocol):
    """Worker-side endpoint: the transport every protocol loop drives."""

    def send(self, frame: Frame) -> None:
        """Ship one frame toward the server."""

    def recv(self) -> Frame:
        """Block until the server's next frame arrives."""

    def close(self) -> None:
        """Release the transport; no further send/recv."""


class InProcChannel:
    """Same-process channel: ``send`` dispatches to the service in place.

    The channel owns the byte accounting (``stats``) and, in wire-fidelity
    mode, round-trips both directions through the frame codec so the
    service sees exactly what a remote peer would have decoded.
    """

    def __init__(
        self,
        service: ServerService,
        worker_id: int,
        stats: "CompressionStats | None" = None,
        wire_fidelity: bool = False,
    ) -> None:
        self.service = service
        self.worker_id = worker_id
        self.stats = stats
        self.wire_fidelity = wire_fidelity
        #: the worker's final close frame (accounting source for trainers)
        self.close_frame: "CloseFrame | None" = None
        self._pending: "Frame | None" = None
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        if self._closed:
            raise ChannelClosed(f"channel for worker {self.worker_id} is closed")
        if self.wire_fidelity:
            frame = decode_frame(encode_frame(frame))
        if isinstance(frame, CloseFrame):
            self.close_frame = frame
            return
        if isinstance(frame, TelemetryFrame):
            return  # diagnostic side channel: nothing to dispatch in-process
        if isinstance(frame, ControlFrame):
            # Membership handshake, synchronous like everything in-process:
            # a join's ModelFrame reply becomes the pending recv.
            reply = self.service.control(frame)
            if reply is not None:
                if self.wire_fidelity:
                    reply = decode_frame(encode_frame(reply))
                self._pending = reply
            return
        if not isinstance(frame, GradientFrame):
            raise TypeError(f"worker endpoints send gradient/close frames, not {type(frame).__name__}")
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                obs_names.COMM_SEND,
                cat="comm",
                worker=self.worker_id,
                bytes=frame.nbytes(),
                dense_bytes=frame.dense_nbytes(),
            ):
                reply = self._exchange(frame)
        else:
            reply = self._exchange(frame)
        if self.wire_fidelity:
            reply = decode_frame(encode_frame(reply))
        self._pending = reply

    def _exchange(self, frame: GradientFrame):
        if self.stats is not None:
            self.stats.record_upload(frame.nbytes(), frame.dense_nbytes())
        reply = self.service(frame)
        if self.stats is not None:
            self.stats.record_download(reply.nbytes(), reply.dense_nbytes())
        return reply

    def recv(self) -> Frame:
        if self._pending is None:
            raise ChannelClosed(f"no reply pending for worker {self.worker_id}")
        frame, self._pending = self._pending, None
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                obs_names.COMM_RECV,
                cat="comm",
                worker=self.worker_id,
                bytes=frame.nbytes(),
                dense_bytes=frame.dense_nbytes(),
            ):
                pass
        return frame

    def close(self) -> None:
        self._closed = True
