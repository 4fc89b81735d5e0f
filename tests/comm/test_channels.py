"""Channel implementations: OS pipes, the serving loop, the worker loop."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.comm import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    ChannelClosed,
    CloseFrame,
    ControlFrame,
    DiffFrame,
    GradientFrame,
    ModelFrame,
    PipeChannel,
    ServerService,
    TelemetryFrame,
    run_worker_loop,
    serve_channels,
)
from repro.compression import SparseTensor
from repro.compression.stats import CompressionStats
from repro.obs import Tracer, use_tracer
from repro.ps.messages import DiffMessage, GradientMessage, ModelMessage
from repro.ps.server import ParameterServer


def _gradient(worker_id=0, value=1.5, iteration=0):
    payload = {"w": SparseTensor(np.array([1], dtype=np.int64), np.array([value]), (4,))}
    return GradientFrame(GradientMessage(worker_id, payload, iteration), loss=0.5)


def _echo_service(frame):
    """Stub service: replies with a diff carrying the same payload."""
    return DiffFrame(
        DiffMessage(frame.worker_id, frame.message.payload, server_timestamp=1, staleness=0)
    )


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
        report = serve_channels([server_ch], _service(), stats=stats, on_update=losses.append)
        assert report.clean_closes == 1 and report.errors == []
        assert report.samples_processed == 16 and report.worker_state_bytes == 32
        assert stats.upload_messages == 1 and stats.download_messages == 1
        assert losses == [0.5]
        assert isinstance(worker_ch.recv(), DiffFrame)  # the buffered reply

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
        assert len(report.errors) == 1 and report.clean_closes == 1
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


class _LoopbackChannel:
    """Worker end answered in place: a join with an empty model, a gradient
    with ``_echo_service``'s diff.  Records every frame the loop sends."""

    def __init__(self):
        self.sent = []
        self.closed = False
        self._pending = None

    def send(self, frame):
        self.sent.append(frame)
        if isinstance(frame, GradientFrame):
            self._pending = _echo_service(frame)
        elif isinstance(frame, ControlFrame) and frame.op == CONTROL_JOIN:
            self._pending = ModelFrame(ModelMessage(frame.worker_id, {}, 0, 0))

    def recv(self):
        frame, self._pending = self._pending, None
        return frame

    def close(self):
        self.closed = True

    def kinds(self):
        return [
            frame.op if isinstance(frame, ControlFrame) else type(frame).__name__
            for frame in self.sent
        ]


class TestWorkerProtocolLoop:
    def test_clean_run_sends_accounting_close(self):
        node = _FakeNode(worker_id=1)
        channel = _LoopbackChannel()
        run_worker_loop(node, channel, iterations=3)
        assert channel.kinds() == [
            CONTROL_JOIN, "GradientFrame", "GradientFrame", "GradientFrame",
            CONTROL_LEAVE, "CloseFrame",
        ]
        # the join reply is applied first, then one reply per step
        assert node.samples_processed == 3 and len(node.applied) == 4
        assert isinstance(node.applied[0], ModelMessage)
        close = channel.sent[-1]
        assert close.error is None and close.worker_id == 1
        assert close.samples_processed == 3 and close.worker_state_bytes == 64
        assert channel.closed

    def test_worker_exception_reported_in_close_frame(self):
        node = _FakeNode(worker_id=2, fail_on=2)
        channel = _LoopbackChannel()
        with pytest.raises(ZeroDivisionError):
            run_worker_loop(node, channel, iterations=5)
        assert CONTROL_LEAVE not in channel.kinds()  # a failed worker does not leave
        close = channel.sent[-1]
        assert isinstance(close, CloseFrame)
        assert "ZeroDivisionError" in close.error
        assert close.samples_processed == 2  # partial accounting still attached

    def test_on_iteration_runs_before_each_step(self):
        node = _FakeNode(worker_id=0)
        seen = []
        run_worker_loop(
            node,
            _LoopbackChannel(),
            iterations=3,
            on_iteration=lambda i: seen.append((i, node.samples_processed)),
        )
        assert seen == [(0, 0), (1, 1), (2, 2)]

    def test_telemetry_ships_only_when_the_ambient_tracer_records(self):
        untraced = _LoopbackChannel()
        run_worker_loop(_FakeNode(), untraced, iterations=2)
        assert "TelemetryFrame" not in untraced.kinds()

        traced = _LoopbackChannel()
        with use_tracer(Tracer()):
            run_worker_loop(_FakeNode(), traced, iterations=2)
        telemetry, close = traced.sent[-2:]
        assert isinstance(telemetry, TelemetryFrame) and isinstance(close, CloseFrame)
        spans = telemetry.spans
        assert sum(r["name"] == "worker.step" for r in spans) == 2
