"""SocketChannel / SocketListener mechanics: connect retry, timeouts, EOF.

The frame traffic itself is property-tested in
``tests/properties/test_prop_socket_frames.py``; these tests pin the
failure semantics the serve loop relies on — crash (EOF), wedge
(ChannelTimeout), closed-channel errors — and the connect backoff that
lets workers start before the server.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket as raw_socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.comm import (
    ChannelClosed,
    CloseFrame,
    GradientFrame,
    decode_frame,
    encode_frame,
    frame_segments,
    serve_channels,
)
from repro.comm import socket as socket_module
from repro.comm.pipe import PipeChannel
from repro.comm.socket import (
    MAX_FRAME_BYTES,
    ChannelProtocolError,
    ChannelTimeout,
    SocketChannel,
    SocketListener,
)
from repro.ps.messages import GradientMessage


def _pair(**channel_kwargs):
    listener = SocketListener()
    host, port = listener.address
    client = SocketChannel.connect(host, port, **channel_kwargs)
    server = listener.accept()
    return listener, client, server


class TestConnectRetry:
    def test_connect_succeeds_when_listener_appears_late(self):
        """The two-terminal race: the worker dials before the server binds."""
        probe = raw_socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # port is now free — first connects will be refused

        result = {}

        def dial():
            result["channel"] = SocketChannel.connect(host, port, retry_for_s=5.0)

        t = threading.Thread(target=dial)
        t.start()
        time.sleep(0.15)  # let at least one attempt fail
        listener = SocketListener(host, port)
        try:
            server = listener.accept()
            t.join(timeout=5)
            assert "channel" in result
            result["channel"].send(CloseFrame(worker_id=4))
            assert server.recv() == CloseFrame(worker_id=4)
            result["channel"].close()
            server.close()
        finally:
            listener.close()

    def test_connect_budget_exhaustion_raises_connection_error(self):
        probe = raw_socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        t0 = time.monotonic()
        with pytest.raises(ConnectionError, match="attempt"):
            SocketChannel.connect(host, port, retry_for_s=0.3, backoff_base_s=0.02)
        # the budget bounds the total wait — no unbounded retry loop
        assert time.monotonic() - t0 < 5.0


class TestFailureSemantics:
    def test_peer_vanishing_raises_eoferror(self):
        """Crash semantics: a dropped connection is EOF, not a close frame."""
        listener, client, server = _pair()
        try:
            client.close()
            with pytest.raises(EOFError, match="no close frame"):
                server.recv()
        finally:
            server.close()
            listener.close()

    def test_read_timeout_raises_channel_timeout(self):
        listener = SocketListener(read_timeout_s=0.2)
        host, port = listener.address
        client = SocketChannel.connect(host, port)
        server = listener.accept()
        try:
            assert server.read_timeout_s == 0.2  # listener propagates deadline
            t0 = time.monotonic()
            with pytest.raises(ChannelTimeout):
                server.recv()
            assert time.monotonic() - t0 < 5.0
        finally:
            client.close()
            server.close()
            listener.close()

    def test_channel_timeout_is_an_oserror(self):
        # the serve loop's crash handling catches OSError; a wedged peer
        # must resolve through the same path as a dead one
        assert issubclass(ChannelTimeout, OSError)

    def test_send_and_recv_after_close_raise_channel_closed(self):
        listener, client, server = _pair()
        listener.close()
        server.close()
        client.close()
        with pytest.raises(ChannelClosed):
            client.send(CloseFrame(worker_id=0))
        with pytest.raises(ChannelClosed):
            client.recv()

    def test_close_is_idempotent(self):
        listener, client, server = _pair()
        for _ in range(2):
            client.close()
            server.close()
            listener.close()


class TestListener:
    def test_ephemeral_bind_reports_real_port(self):
        listener = SocketListener()
        try:
            host, port = listener.address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            listener.close()

    def test_waitable_is_wait_compatible(self):
        """multiprocessing.connection.wait accepts both ends + the listener."""
        from multiprocessing.connection import wait

        listener, client, server = _pair()
        try:
            assert wait([listener.waitable, server.waitable], timeout=0) == []
            client.send(CloseFrame(worker_id=1))
            ready = wait([listener.waitable, server.waitable], timeout=2)
            assert server.waitable in ready
        finally:
            client.close()
            server.close()
            listener.close()


def _raw_peer(listener):
    """A bare TCP socket connected to ``listener`` plus the accepted channel."""
    peer = raw_socket.create_connection(listener.address)
    return peer, listener.accept()


def _channel_and_peer(transport: str, read_timeout_s=None):
    """A channel of ``transport`` and the bare socket at its other end: a
    TCP connection, or the far end of a ``multiprocessing.Pipe()``."""
    if transport == "tcp":
        listener = SocketListener(read_timeout_s=read_timeout_s)
        try:
            peer, channel = _raw_peer(listener)
        finally:
            listener.close()
        return channel, peer
    ours, theirs = mp.Pipe()
    peer = raw_socket.socket(fileno=os.dup(theirs.fileno()))
    theirs.close()
    return PipeChannel(ours, read_timeout_s=read_timeout_s), peer


def _dense_frame(seed: int = 0):
    """The benchmark's dense exchange: MLP(768, (1024, 128), 10), 3.68 MB."""
    from repro.core.layerops import parameters_of
    from repro.nn import MLP

    params = parameters_of(MLP(768, (1024, 128), 10, seed=seed))
    return GradientFrame(GradientMessage(0, params, 0), loss=0.25)


def _dense_frame_bytes(seed: int = 0):
    return encode_frame(_dense_frame(seed))


def _stall_mid_frame(peer) -> None:
    peer.sendall(struct.pack("<I", 1000) + bytes(500))


def _die_mid_frame(peer) -> None:
    _stall_mid_frame(peer)
    peer.close()


#: what a hostile peer does to its own channel, by name
HOSTILE = {
    "oversized": lambda peer: peer.sendall(b"\xff\xff\xff\xff"),
    "stalled": _stall_mid_frame,
    "died": _die_mid_frame,
}
#: the server-side read deadline the hostile-peer runs arm
HOSTILE_DEADLINE_S = 0.3


class TestFrameBound:
    """The receive buffer is allocated from the peer's length prefix, so the
    prefix is bounded before anything is allocated."""

    def test_oversized_prefix_is_refused_before_allocating(self):
        listener = SocketListener()
        peer, server = _raw_peer(listener)
        try:
            peer.sendall(b"\xff\xff\xff\xff")
            tracemalloc.start()
            try:
                with pytest.raises(ChannelProtocolError, match="4294967295-byte frame"):
                    server.recv_raw()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # not the 4 GiB the prefix asked for
            assert server.wire_bytes_received == 0
        finally:
            peer.close()
            server.close()
            listener.close()

    def test_protocol_error_is_an_oserror(self):
        # same reasoning as ChannelTimeout: the serve loop's crash handling
        # catches OSError, so the offending channel is dropped, nothing else
        assert issubclass(ChannelProtocolError, OSError)
        assert MAX_FRAME_BYTES == 1 << 30

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(socket_module, "MAX_FRAME_BYTES", 64)
        listener = SocketListener()
        peer, server = _raw_peer(listener)
        try:
            peer.sendall(struct.pack("<I", 64) + bytes(64) + struct.pack("<I", 65))
            assert server.recv_raw() == bytes(64)
            with pytest.raises(ChannelProtocolError):
                server.recv_raw()
        finally:
            peer.close()
            server.close()
            listener.close()

    @pytest.mark.parametrize("transport", ["tcp", "pipe"])
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_peer_costs_only_its_own_channel(self, case, transport):
        """A peer that announces more than ``MAX_FRAME_BYTES``, stalls
        mid-frame or dies mid-frame is dropped as a crash; the server
        survives and the honest worker's replies are bitwise those of a
        run the bad peer never joined.  Over pipes this needs the stream
        record's bound and read deadline: ``Connection.recv_bytes`` had
        neither, so a pipe peer that announced 1 GiB and stalled blocked
        the serve loop for good."""
        from test_service import _grad_for, _make_service

        def run(with_bad_peer: bool):
            service, server, _ = _make_service(num_workers=2)
            replies, hostile = [], []
            if transport == "tcp":
                # workers dial in; the bad peer connects mid-run
                listener = SocketListener(read_timeout_s=HOSTILE_DEADLINE_S)
                address = listener.address
                channels = []

                def connect():
                    return SocketChannel.connect(*address)

                def bad_peer():
                    return raw_socket.create_connection(address)
            else:
                # pipes are pre-wired, as the process backend wires them
                listener = None
                honest_end, worker_end = mp.Pipe()
                channels = [PipeChannel(honest_end, read_timeout_s=HOSTILE_DEADLINE_S)]
                if with_bad_peer:
                    bad_channel, bad = _channel_and_peer("pipe", HOSTILE_DEADLINE_S)
                    channels.append(bad_channel)

                def connect():
                    return PipeChannel(worker_end)

                def bad_peer():
                    return bad

            def honest():
                from repro.comm import CONTROL_JOIN, ControlFrame

                ch = connect()
                ch.send(ControlFrame(0, CONTROL_JOIN))
                ch.recv()
                for step in range(4):
                    if with_bad_peer and step == 2:
                        hostile.append(bad_peer())
                        HOSTILE[case](hostile[-1])
                    ch.send(_grad_for(server, 0, scale=0.01 * (step + 1)))
                    replies.append(ch.recv().message.payload)
                ch.send(CloseFrame(worker_id=0))
                ch.close()

            t = threading.Thread(target=honest)
            t.start()
            try:
                report = serve_channels(
                    channels,
                    service,
                    stats=server.stats,
                    listener=listener,
                    expected_closes=2 if with_bad_peer else 1,
                )
            finally:
                if listener is not None:
                    listener.close()
                t.join(timeout=10)
                for bad in hostile:
                    bad.close()
            assert not t.is_alive()
            return report, replies, server.global_model()

        clean_report, clean_replies, clean_model = run(with_bad_peer=False)
        report, replies, model = run(with_bad_peer=True)
        assert clean_report.errors == []
        assert len(report.errors) == 1 and report.clean_closes == 1
        assert report.updates == clean_report.updates == 4
        for name in clean_model:
            assert model[name].tobytes() == clean_model[name].tobytes()
        assert len(replies) == len(clean_replies) == 4
        for got, want in zip(replies, clean_replies):
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()


class _SocketProxy:
    """A real socket whose ``sendmsg`` return values are recorded and can be
    capped (every call, or ``first_only``), to force the short writes a
    full socket buffer produces."""

    def __init__(self, sock, cap=None, first_only=False):
        self._sock = sock
        self.cap = cap
        self.first_only = first_only
        self.sendmsg_returns = []

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendmsg(self, buffers):
        if self.cap is not None and not (self.first_only and self.sendmsg_returns):
            joined = b"".join(bytes(b) for b in buffers)
            sent = self._sock.send(joined[: self.cap])
        else:
            sent = self._sock.sendmsg(buffers)
        self.sendmsg_returns.append(sent)
        return sent


class TestSendPath:
    """``send_raw`` is one scatter-gather ``sendmsg([prefix, frame])``; a
    short write is finished with ``sendall`` from where it stopped."""

    @pytest.mark.parametrize("cap", [1, 3, 4, 5, 1000])
    def test_capped_sendmsg_still_delivers_the_record(self, cap):
        """``sendmsg`` stopping mid-prefix (cap < 4), at the boundary, or
        mid-frame: the record arrives whole, followed by the next one."""
        listener = SocketListener()
        host, port = listener.address
        proxy = _SocketProxy(raw_socket.create_connection((host, port)), cap=cap)
        client = SocketChannel(proxy)
        server = listener.accept()
        try:
            frame = bytes(range(256)) * 8
            client.send_raw(frame)
            client.send(CloseFrame(worker_id=7))
            assert server.recv_raw() == frame
            assert server.recv() == CloseFrame(worker_id=7)
            assert proxy.sendmsg_returns[0] == cap
            # the prefix is transport framing: never counted
            assert client.wire_bytes_sent == server.wire_bytes_received
            assert client.wire_bytes_sent == len(frame) + len(encode_frame(CloseFrame(worker_id=7)))
        finally:
            client.close()
            server.close()
            listener.close()

    def test_dense_frame_through_a_tiny_send_buffer_and_a_slow_reader(self):
        """With a timeout on the socket (the server side has one whenever
        an eviction budget is set) ``sendmsg`` returns as soon as the kernel took *some* bytes: with
        ``SO_SNDBUF`` shrunk and a reader that sleeps between 4 KiB reads
        the 3.68 MB frame goes out in a short write plus ``sendall``, and
        still arrives intact, in order behind a small frame."""
        listener = SocketListener()
        host, port = listener.address
        sock = raw_socket.socket()
        sock.setsockopt(raw_socket.SOL_SOCKET, raw_socket.SO_SNDBUF, 4096)
        sock.connect((host, port))
        sock.settimeout(30.0)
        proxy = _SocketProxy(sock)
        client = SocketChannel(proxy)
        reader, _ = listener._sock.accept()
        small = encode_frame(CloseFrame(worker_id=1))
        big = _dense_frame_bytes()
        received = bytearray()

        def slow_reader():
            reads = 0
            while len(received) < 8 + len(small) + len(big):
                chunk = reader.recv(4096)
                if not chunk:
                    break
                received.extend(chunk)
                reads += 1
                if reads < 40:
                    time.sleep(0.002)

        t = threading.Thread(target=slow_reader)
        t.start()
        try:
            client.send_raw(small)
            client.send_raw(big)
            t.join(timeout=30)
            assert not t.is_alive()
            assert proxy.sendmsg_returns[1] < 4 + len(big)  # the write was short
            expected = struct.pack("<I", len(small)) + small + struct.pack("<I", len(big)) + big
            assert bytes(received) == expected
            assert client.wire_bytes_sent == len(small) + len(big)
        finally:
            client.close()
            reader.close()
            listener.close()

    @staticmethod
    def slow_drain(peer, nbytes: int, received: bytearray) -> threading.Thread:
        """A reader that sleeps between its first 40 reads of 4 KiB."""

        def read():
            reads = 0
            while len(received) < nbytes:
                chunk = peer.recv(4096)
                if not chunk:
                    break
                received.extend(chunk)
                reads += 1
                if reads < 40:
                    time.sleep(0.002)

        t = threading.Thread(target=read)
        t.start()
        return t

    @pytest.mark.parametrize("cut_in", ["prefix", "header", "array"])
    def test_short_writes_resume_inside_the_segment_they_cut(self, cut_in):
        """The dense frame's segments over a socketpair with a 4 KiB send
        buffer, a sender timeout and a slow reader: the first write is cut
        inside the length prefix, inside the frame's header segment or
        inside its first array segment, every later write is as short as
        the kernel makes it, and the peer still reads ``encode_frame(f)``
        behind its prefix, exactly."""
        frame = _dense_frame()
        sizes = [memoryview(seg).nbytes for seg in frame_segments(frame)]
        first_array = next(i for i, size in enumerate(sizes) if size >= 4096)
        cut = {"prefix": 2, "header": 4 + 5, "array": 4 + sum(sizes[:first_array]) + 1000}[cut_in]
        expected = encode_frame(frame)
        record = struct.pack("<I", len(expected)) + expected
        ours, peer = raw_socket.socketpair()
        ours.setsockopt(raw_socket.SOL_SOCKET, raw_socket.SO_SNDBUF, 4096)
        ours.settimeout(30.0)
        proxy = _SocketProxy(ours, cap=cut, first_only=True)
        channel = SocketChannel(proxy)
        received = bytearray()
        t = self.slow_drain(peer, len(record), received)
        try:
            channel.send(frame)
            t.join(timeout=30)
            assert not t.is_alive()
            assert proxy.sendmsg_returns[0] == cut
            assert len(proxy.sendmsg_returns) > 2  # the kernel cut the rest short too
            assert bytes(received) == record
            assert channel.wire_bytes_sent == len(expected)
        finally:
            channel.close()
            peer.close()

    def test_more_segments_than_iov_max_arrive_whole(self):
        """One ``sendmsg`` takes at most ``IOV_MAX`` segments; a frame of
        more (every 4 KiB float32 layer is a header run plus a view) goes
        out in chunks of them and arrives whole."""
        layers = socket_module._IOV_MAX // 2 + 8
        rng = np.random.default_rng(0)
        payload = {f"l{i}": rng.normal(size=1024).astype(np.float32) for i in range(layers)}
        frame = GradientFrame(GradientMessage(0, payload, 0), loss=0.5)
        assert len(frame_segments(frame)) > socket_module._IOV_MAX
        expected = encode_frame(frame)
        ours, peer = raw_socket.socketpair()
        channel = SocketChannel(ours)
        received = bytearray()
        t = self.slow_drain(peer, 4 + len(expected), received)
        try:
            channel.send(frame)
            t.join(timeout=30)
            assert not t.is_alive()
            assert bytes(received) == struct.pack("<I", len(expected)) + expected
        finally:
            channel.close()
            peer.close()

    def test_read_timeout_fires_mid_frame(self):
        """A peer that stalls after half a frame: ``recv_into`` times out
        with the frame partly filled, as ``recv`` did."""
        listener = SocketListener(read_timeout_s=0.2)
        peer, server = _raw_peer(listener)
        try:
            peer.sendall(struct.pack("<I", 1000) + bytes(500))
            t0 = time.monotonic()
            with pytest.raises(ChannelTimeout, match="mid-frame"):
                server.recv_raw()
            assert time.monotonic() - t0 < 5.0
            assert server.wire_bytes_received == 0
        finally:
            peer.close()
            server.close()
            listener.close()

    def test_eof_mid_frame_is_a_crash(self):
        listener = SocketListener()
        peer, server = _raw_peer(listener)
        try:
            peer.sendall(struct.pack("<I", 1000) + bytes(500))
            peer.close()
            with pytest.raises(EOFError, match="no close frame"):
                server.recv_raw()
        finally:
            server.close()
            listener.close()


class TestCopyCounts:
    """Copies per hop, as counts: receiving the benchmark's dense frame
    allocates the frame once, into a buffer no other receive shares;
    sending it — encoded bytes or the frame itself — allocates nothing
    payload-sized.  The peer in each test is a bare socket working from
    memory allocated before tracing starts, so the trace sees one side
    only."""

    @staticmethod
    def receive_twice(transport: str) -> float:
        """Receive the dense frame under tracemalloc, then a second one off
        the same channel; checks both, returns the first receive's peak
        as a multiple of the frame."""
        first, second = _dense_frame_bytes(seed=0), _dense_frame_bytes(seed=1)
        records = b"".join(struct.pack("<I", len(f)) + bytes(f) for f in (first, second))
        channel, peer = _channel_and_peer(transport)
        t = threading.Thread(target=peer.sendall, args=(records,))
        try:
            tracemalloc.start()
            try:
                t.start()
                raw = channel.recv_raw()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            layer = decode_frame(raw).message.payload["net.0.weight"]
            kept = layer.copy()
            raw2 = channel.recv_raw()
            t.join(timeout=10)
            assert raw == first and raw2 == second
            assert isinstance(raw, memoryview) and isinstance(raw2, memoryview)
            # fresh per frame: the second receive wrote nothing the first
            # frame's decoded views read
            assert not np.shares_memory(np.asarray(raw), np.asarray(raw2))
            assert layer.tobytes() == kept.tobytes()
            return peak / len(first)
        finally:
            peer.close()
            channel.close()

    def test_receive_allocates_the_frame_once(self):
        assert self.receive_twice("tcp") <= 1.02  # was 2.00×: recv chunks + join

    def test_pipe_receive_allocates_the_frame_once(self):
        # was 2.00× through Connection.recv_bytes: 64 KiB reads into a
        # BytesIO, then getvalue
        assert self.receive_twice("pipe") <= 1.02

    @pytest.mark.parametrize("transport", ["tcp", "pipe"])
    def test_sending_the_dense_frame_allocates_no_payload(self, transport):
        frame = _dense_frame()
        expected = encode_frame(frame)
        channel, peer = _channel_and_peer(transport)
        sink = memoryview(bytearray(4 + len(expected)))

        def drain():
            got = 0
            while got < len(sink):
                got += peer.recv_into(sink[got:])

        t = threading.Thread(target=drain)
        try:
            tracemalloc.start()
            try:
                t.start()
                channel.send(frame)
                t.join(timeout=10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not t.is_alive()
            assert sink[:4] == struct.pack("<I", len(expected)) and sink[4:] == expected
            assert peak <= 64 * 1024  # was 1.00× the frame: encode_frame's buffer
        finally:
            peer.close()
            channel.close()

    def test_send_allocates_no_payload(self):
        frame = _dense_frame_bytes()
        listener = SocketListener()
        peer, server = _raw_peer(listener)
        sink = memoryview(bytearray(4 + len(frame)))

        def drain():
            got = 0
            while got < len(sink):
                got += peer.recv_into(sink[got:])

        t = threading.Thread(target=drain)
        try:
            tracemalloc.start()
            try:
                t.start()
                server.send_raw(frame)
                t.join(timeout=10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not t.is_alive()
            assert sink[4:] == frame
            assert peak <= 64 * 1024  # was 1.00× the frame: prefix + raw
        finally:
            peer.close()
            server.close()
            listener.close()


class TestBufferLifetime:
    def test_decoded_layers_survive_the_next_frame_on_the_channel(self):
        """Receive buffers are never reused: frame A's layers (views of its
        buffer) are untouched by receiving and decoding frame B."""
        listener, client, server = _pair()
        try:
            a = {"w": np.arange(5000, dtype=np.float64)}
            b = {"w": -np.arange(5000, dtype=np.float64)}
            client.send(GradientFrame(GradientMessage(0, a, 0), loss=0.0))
            layer_a = server.recv().message.payload["w"]
            client.send(GradientFrame(GradientMessage(0, b, 1), loss=0.0))
            layer_b = decode_frame(server.recv_raw()).message.payload["w"]
            assert not np.shares_memory(layer_a, layer_b)
            np.testing.assert_array_equal(layer_a, a["w"])
            np.testing.assert_array_equal(layer_b, b["w"])
        finally:
            client.close()
            server.close()
            listener.close()
