"""Stream socket channels: the repo's frames over TCP (and, through
:class:`~repro.comm.pipe.PipeChannel`, over a pipe's socketpair).

:class:`SocketChannel` carries the exact byte format of
:mod:`repro.comm.frames` over a stream socket, length-prefixed::

    record := length u32 (little-endian) | frame bytes

A send gathers the prefix and the frame's segments
(:func:`~repro.comm.frames.frame_segments`) into ``sendmsg`` calls, so a
payload array already in its wire dtype goes from its own memory to the
kernel; a receive reads the prefix, then lets the kernel fill one fresh,
unzeroed buffer through ``recv_into``.  Wire counters track frame bytes
(the length prefix is transport framing, not payload).

A read fails in one of three ways, each of which the serve loop's
driver turns into that channel's crash (``ServeCore.eof``) and nothing
more:

* clean EOF mid-stream raises ``EOFError``: the peer vanished without a
  close frame;
* a length prefix above :data:`MAX_FRAME_BYTES` raises
  :class:`ChannelProtocolError` (an ``OSError``) *before* the receive
  buffer is allocated;
* :class:`ChannelTimeout` (an ``OSError``) fires when ``read_timeout_s``
  elapses inside a read, so a half-sent frame cannot wedge the server
  after ``wait()`` reported readability; the server side sets it from
  the straggler budget.

:meth:`SocketChannel.connect` retries with capped exponential backoff —
workers and server race to start in a real deployment (and in the
loopback CI smoke), and the first connect routinely lands before the
listener is up.

:class:`SocketListener` binds ``127.0.0.1:0`` by default: an ephemeral
loopback port, which is what CI uses; real deployments pass an explicit
``host:port``.
"""

from __future__ import annotations

import os
import socket as _socket
import struct
import time

import numpy as np

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .channel import ChannelClosed
from .frames import Frame, decode_frame, frame_segments

__all__ = [
    "ChannelProtocolError",
    "ChannelTimeout",
    "MAX_FRAME_BYTES",
    "SocketChannel",
    "SocketListener",
    "DEFAULT_BACKOFF_BASE_S",
    "DEFAULT_BACKOFF_CAP_S",
]

_LENGTH = struct.Struct("<I")
#: most segments one ``sendmsg`` may carry
_IOV_MAX = os.sysconf("SC_IOV_MAX")

#: largest frame a peer may announce.  The receive buffer is allocated from
#: the length prefix, so the prefix is bounded first: 1 GiB is ~290× the
#: largest frame any model in this repo ships and far below what a u32 can
#: ask for.
MAX_FRAME_BYTES = 1 << 30

#: first connect-retry delay; doubles per attempt up to the cap
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 1.0


class ChannelTimeout(OSError):
    """A read exceeded the channel's ``read_timeout_s``."""


class ChannelProtocolError(OSError):
    """The peer broke the record framing (length prefix out of bounds)."""


class SocketChannel:
    """One endpoint of a stream socket speaking the comm frame format."""

    def __init__(
        self,
        sock: "_socket.socket",
        read_timeout_s: "float | None" = None,
    ) -> None:
        self._sock = sock
        #: per-read deadline; ``None`` blocks forever (worker side default)
        self.read_timeout_s = read_timeout_s
        #: actual frame bytes through the socket (length prefixes excluded)
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self._closed = False
        #: the record's length prefix lands here (only the frame is handed out)
        self._prefix = memoryview(bytearray(_LENGTH.size))
        try:
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. AF_UNIX in tests); Nagle is moot

    # ------------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        read_timeout_s: "float | None" = None,
        retry_for_s: float = 10.0,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    ) -> "SocketChannel":
        """Connect to a listening server, retrying with capped exponential
        backoff for up to ``retry_for_s`` seconds.

        Workers routinely start before the server's listener is bound (two
        terminals, one ``fork`` race); refused/unreachable connects retry
        at ``backoff_base_s``, doubling per attempt up to ``backoff_cap_s``.
        Raises ``ConnectionError`` when the budget is exhausted.
        """
        deadline = time.monotonic() + retry_for_s
        delay = backoff_base_s
        attempt = 0
        while True:
            attempt += 1
            try:
                sock = _socket.create_connection((host, port), timeout=retry_for_s)
                return cls(sock, read_timeout_s=read_timeout_s)
            except OSError as exc:
                if time.monotonic() + delay > deadline:
                    raise ConnectionError(
                        f"could not connect to {host}:{port} after {attempt} "
                        f"attempt(s) over {retry_for_s:g}s: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(delay * 2.0, backoff_cap_s)

    # ------------------------------------------------------------------
    def _recv_into(self, view: memoryview) -> None:
        """Fill ``view`` off the stream, honouring ``read_timeout_s``.

        EOF before it is full raises ``EOFError`` (crash semantics — the
        peer vanished without a close frame); a deadline elapsing raises
        :class:`ChannelTimeout`.
        """
        got = 0
        while got < len(view):
            try:
                count = self._sock.recv_into(view[got:])
            except _socket.timeout as exc:
                raise ChannelTimeout(
                    f"no bytes for {self.read_timeout_s:g}s mid-frame"
                ) from exc
            if not count:
                raise EOFError("socket closed mid-stream (no close frame)")
            got += count

    def _recv_record(self) -> memoryview:
        """One record's frame, in a buffer that is *fresh per call and
        never reused* (decoded dense layers are views of it) but not
        zero-filled: the kernel writes every byte of it."""
        self._sock.settimeout(self.read_timeout_s)
        self._recv_into(self._prefix)
        (length,) = _LENGTH.unpack(self._prefix)
        if length > MAX_FRAME_BYTES:
            raise ChannelProtocolError(
                f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
            )
        raw = memoryview(np.empty(length, dtype=np.uint8))
        self._recv_into(raw)
        return raw

    def _send_record(self, segments: "list[bytes | memoryview]", nbytes: int) -> None:
        """Length prefix and segments in scatter-gather writes, so nothing
        is copied to put them side by side.  A short write (the record is
        larger than the socket buffer) resumes inside the segment it cut;
        at most ``_IOV_MAX`` segments go to one ``sendmsg``."""
        views = [_LENGTH.pack(nbytes), *(seg for seg in segments if len(seg))]
        first = 0
        while first < len(views):
            sent = self._sock.sendmsg(views[first : first + _IOV_MAX])
            while sent:
                size = len(views[first])
                if sent < size:
                    views[first] = memoryview(views[first])[sent:]
                    break
                sent -= size
                first += 1

    def _send(self, segments: "list[bytes | memoryview]") -> None:
        """Ship one record; ``segments`` are bytes-like, one byte per item
        (``bytes``, ``bytearray``, 1-D ``memoryview`` s of format ``B``)."""
        if self._closed:
            raise ChannelClosed("socket channel is closed")
        nbytes = sum(map(len, segments))
        with current_tracer().span(obs_names.COMM_SEND, cat="comm", bytes=nbytes):
            self._send_record(segments, nbytes)
        self.wire_bytes_sent += nbytes

    def send(self, frame: Frame) -> None:
        self._send(frame_segments(frame))

    def send_raw(self, raw: "bytes | bytearray | memoryview") -> None:
        """Ship an already-encoded frame as one length-prefixed record."""
        self._send([raw])

    def recv_raw(self) -> memoryview:
        """One encoded frame off the stream (the serve loop peeks the shard
        id off these bytes before decoding)."""
        if self._closed:
            raise ChannelClosed("socket channel is closed")
        with current_tracer().span(obs_names.COMM_RECV, cat="comm") as span:
            raw = self._recv_record()
            span.set(bytes=len(raw))
        self.wire_bytes_received += len(raw)
        return raw

    def recv(self) -> Frame:
        return decode_frame(self.recv_raw())

    @property
    def waitable(self):
        """What ``multiprocessing.connection.wait`` blocks on (it accepts
        socket objects alongside pipe connections)."""
        return self._sock

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass  # peer already gone
            self._sock.close()


class SocketListener:
    """Accepts :class:`SocketChannel` s; loopback-ephemeral by default."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 64,
        read_timeout_s: "float | None" = None,
    ) -> None:
        self._sock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
        self._sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        #: stamped onto every accepted channel (server-side read deadline)
        self.read_timeout_s = read_timeout_s
        self._closed = False

    @property
    def address(self) -> "tuple[str, int]":
        """The bound (host, port) — port 0 resolves to the ephemeral pick."""
        return self._sock.getsockname()[:2]

    @property
    def waitable(self):
        """The listening socket: readable ⇔ a connection is pending."""
        return self._sock

    def accept(self) -> SocketChannel:
        sock, _addr = self._sock.accept()
        return SocketChannel(sock, read_timeout_s=self.read_timeout_s)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()
