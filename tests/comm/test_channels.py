"""Channel implementations: in-process dispatch, OS pipes, the serving loop."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.comm import (
    ChannelClosed,
    CloseFrame,
    DiffFrame,
    GradientFrame,
    InProcChannel,
    PipeChannel,
    ServerService,
    run_worker_loop,
    serve_channels,
)
from repro.compression import SparseTensor
from repro.compression.stats import CompressionStats
from repro.ps.messages import DiffMessage, GradientMessage
from repro.ps.server import ParameterServer


def _gradient(worker_id=0, value=1.5, iteration=0):
    payload = {"w": SparseTensor(np.array([1], dtype=np.int64), np.array([value]), (4,))}
    return GradientFrame(GradientMessage(worker_id, payload, iteration), loss=0.5)


def _echo_service(frame):
    """Stub service: replies with a diff carrying the same payload."""
    return DiffFrame(
        DiffMessage(frame.worker_id, frame.message.payload, server_timestamp=1, staleness=0)
    )


class TestInProcChannel:
    def test_send_recv_roundtrip(self):
        channel = InProcChannel(_echo_service, worker_id=0)
        channel.send(_gradient())
        reply = channel.recv()
        assert isinstance(reply, DiffFrame)
        np.testing.assert_array_equal(reply.message.payload["w"].values, [1.5])

    def test_stats_recorded_both_directions(self):
        stats = CompressionStats()
        channel = InProcChannel(_echo_service, worker_id=0, stats=stats)
        frame = _gradient()
        channel.send(frame)
        channel.recv()
        assert stats.upload_messages == 1 and stats.download_messages == 1
        assert stats.upload_bytes == frame.nbytes()
        assert stats.upload_dense_bytes == frame.dense_nbytes()

    def test_wire_fidelity_round_trips_through_the_codec(self):
        seen = {}

        def service(frame):
            seen["value"] = frame.message.payload["w"].values[0]
            return _echo_service(frame)

        channel = InProcChannel(service, worker_id=0, wire_fidelity=True)
        channel.send(_gradient(value=0.1))  # not float32-representable
        reply = channel.recv()
        wire_value = float(np.float32(0.1))
        assert seen["value"] == wire_value != 0.1
        assert reply.message.payload["w"].values[0] == wire_value

    def test_close_frame_captured_not_dispatched(self):
        def service(frame):  # pragma: no cover - must not be reached
            raise AssertionError("close frames never reach the service")

        channel = InProcChannel(service, worker_id=2)
        close = CloseFrame(worker_id=2, samples_processed=64, worker_state_bytes=128)
        channel.send(close)
        assert channel.close_frame == close

    def test_send_after_close_raises(self):
        channel = InProcChannel(_echo_service, worker_id=0)
        channel.close()
        with pytest.raises(ChannelClosed):
            channel.send(_gradient())

    def test_worker_end_rejects_downstream_frames(self):
        channel = InProcChannel(_echo_service, worker_id=0)
        with pytest.raises(TypeError):
            channel.send(DiffFrame(DiffMessage(0, {}, 0, 0)))


class TestPipeChannel:
    def test_loopback_and_wire_counters(self):
        left, right = mp.Pipe(duplex=True)
        sender, receiver = PipeChannel(left), PipeChannel(right)
        frame = _gradient(worker_id=4, iteration=9)
        sender.send(frame)
        out = receiver.recv()
        assert isinstance(out, GradientFrame)
        assert out.worker_id == 4 and out.message.local_iteration == 9
        assert sender.wire_bytes_sent == receiver.wire_bytes_received > frame.nbytes()
        sender.close()
        receiver.close()

    def test_closed_channel_raises(self):
        left, right = mp.Pipe(duplex=True)
        channel = PipeChannel(left)
        channel.close()
        with pytest.raises(ChannelClosed):
            channel.send(_gradient())
        with pytest.raises(ChannelClosed):
            channel.recv()
        right.close()


def _service(num_workers=1):
    """A real service over a server holding the one layer ``_gradient`` feeds."""
    return ServerService(ParameterServer({"w": np.zeros(4, dtype=np.float32)}, num_workers))


class TestServePipeChannels:
    def _pair(self):
        parent, child = mp.Pipe(duplex=True)
        return PipeChannel(parent), PipeChannel(child)

    def test_serves_until_clean_close(self):
        server_ch, worker_ch = self._pair()
        worker_ch.send(_gradient(worker_id=0))
        worker_ch.send(CloseFrame(worker_id=0, samples_processed=16, worker_state_bytes=32))
        stats = CompressionStats()
        losses = []
        report = serve_channels([server_ch], _service(), stats=stats, on_loss=losses.append)
        assert report.clean_closes == 1 and report.crashes == 0
        assert report.samples_processed == 16 and report.worker_state_bytes == 32
        assert stats.upload_messages == 1 and stats.download_messages == 1
        assert losses == [0.5]
        assert isinstance(worker_ch.recv(), DiffFrame)  # the buffered reply

    def test_close_frame_with_error_counts_as_crash(self):
        server_ch, worker_ch = self._pair()
        worker_ch.send(CloseFrame(worker_id=3, samples_processed=8, error="RuntimeError: boom"))
        report = serve_channels([server_ch], _service())
        assert report.crashes == 1 and report.clean_closes == 0
        assert report.samples_processed == 8  # accounting up to the failure survives
        assert any("worker 3" in e and "boom" in e for e in report.errors)

    def test_eof_without_close_frame_is_a_crash(self):
        server_ch, worker_ch = self._pair()
        worker_ch.connection.close()  # hard death: no close frame
        report = serve_channels([server_ch], _service())
        assert report.crashes == 1
        assert any("without a close frame" in e for e in report.errors)

    @pytest.mark.parametrize(
        "payload",
        [
            {"nope": SparseTensor(np.array([1]), np.array([1.0], dtype=np.float32), (4,))},
            {"w": np.ones(3, dtype=np.float32)},
            {"w": SparseTensor(np.array([4]), np.array([1.0], dtype=np.float32), (4,))},
        ],
        ids=["unknown-layer", "wrong-shape", "index-out-of-range"],
    )
    def test_frame_that_does_not_fit_the_server_crashes_only_its_channel(self, payload):
        service = _service(num_workers=2)
        bad_server, bad_worker = self._pair()
        honest_server, honest_worker = self._pair()
        bad_worker.send(GradientFrame(GradientMessage(0, payload, 0), loss=0.5))
        honest_worker.send(_gradient(worker_id=1))
        honest_worker.send(CloseFrame(worker_id=1, samples_processed=16))
        report = serve_channels([bad_server, honest_server], service)
        assert report.crashes == 1 and report.clean_closes == 1
        assert any(e.startswith("worker 0 ") and "cannot apply" in e for e in report.errors)
        assert service.server.timestamp == 1  # only the honest update applied
        assert isinstance(honest_worker.recv(), DiffFrame)


class _FakeNode:
    """Minimal worker-node double for driving the protocol loop."""

    def __init__(self, worker_id=0, fail_on=None):
        self.worker_id = worker_id
        self.fail_on = fail_on
        self.samples_processed = 0
        self.last_loss = 0.25
        self.applied = []

    def compute_step(self):
        if self.fail_on is not None and self.samples_processed >= self.fail_on:
            raise ZeroDivisionError("synthetic failure")
        self.samples_processed += 1
        return GradientMessage(self.worker_id, {"w": np.ones(2)}, self.samples_processed)

    def apply_reply(self, msg):
        self.applied.append(msg)

    def worker_state_bytes(self):
        return 64


class TestWorkerProtocolLoop:
    def test_clean_run_sends_accounting_close(self):
        node = _FakeNode(worker_id=1)
        channel = InProcChannel(_echo_service, worker_id=1)
        run_worker_loop(node, channel, iterations=3)
        assert node.samples_processed == 3 and len(node.applied) == 3
        close = channel.close_frame
        assert close is not None and close.error is None
        assert close.worker_id == 1
        assert close.samples_processed == 3 and close.worker_state_bytes == 64

    def test_worker_exception_reported_in_close_frame(self):
        node = _FakeNode(worker_id=2, fail_on=2)
        channel = InProcChannel(_echo_service, worker_id=2)
        with pytest.raises(ZeroDivisionError):
            run_worker_loop(node, channel, iterations=5)
        close = channel.close_frame
        assert close is not None
        assert "ZeroDivisionError" in close.error
        assert close.samples_processed == 2  # partial accounting still attached
