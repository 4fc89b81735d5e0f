"""The ``Channel`` contract.

A channel is one worker's duplex connection to the parameter server.  The
worker side is three calls — :meth:`~Channel.send`, :meth:`~Channel.recv`,
:meth:`~Channel.close` — and the server side is a *service*: a callable
``GradientFrame -> DiffFrame | ModelFrame``.  Every backend supplies its
own transport (OS pipes, TCP sockets, :class:`~repro.comm.sim.SimTransport`'s
virtual links) but they all speak :mod:`repro.comm.frames` and account
bytes identically:

* the **server-side** endpoint of a channel records analytic payload bytes
  (``frame.nbytes()`` / ``frame.dense_nbytes()``) into one
  :class:`~repro.compression.stats.CompressionStats` sink — the numbers
  ``TrainResult`` reports on every backend;
* channels emit ``comm.send`` / ``comm.recv`` spans to the ambient
  :func:`repro.obs.current_tracer` so traces show the wire on every
  substrate.
"""

from __future__ import annotations

from typing import Protocol

from .frames import Frame

__all__ = ["Channel", "ChannelClosed"]


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
