"""Pipe channels: real bytes between OS processes.

``multiprocessing.Pipe()`` (duplex, the default) is an ``AF_UNIX``
socketpair, so :class:`PipeChannel` is the stream channel of
:mod:`repro.comm.socket` over that socket: the same length-prefixed
record, the same :data:`~repro.comm.socket.MAX_FRAME_BYTES` bound and
read deadline, the same scatter-gather send and fresh ``recv_into``
buffer per frame.  The same class serves both ends: the child process
drives it through the worker protocol loop, the parent through
:func:`repro.comm.service.serve_channels`.
"""

from __future__ import annotations

import os
import socket as _socket

from .socket import SocketChannel

__all__ = ["PipeChannel"]


class PipeChannel(SocketChannel):
    """One end of a duplex ``multiprocessing.Pipe()`` speaking the stream
    record.

    The channel takes the connection's socket over (a duplicate of its
    descriptor) and closes the connection object, so the channel is the
    endpoint's only owner.  ``read_timeout_s`` is the per-read deadline,
    as on TCP: ``None`` blocks forever (the worker side), the server side
    sets it from the straggler budget.
    """

    def __init__(self, connection, read_timeout_s: "float | None" = None) -> None:
        sock = _socket.socket(fileno=os.dup(connection.fileno()))
        connection.close()
        super().__init__(sock, read_timeout_s=read_timeout_s)
