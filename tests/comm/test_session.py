"""The worker's side of the protocol with no I/O, and whole runs in memory.

:class:`~repro.comm.session.WorkerSession` is driven here by hand: its
frames in order on the clean and the error path, the reply check, and
sessions wired to one :class:`~repro.comm.serve_core.ServeCore` with every
frame through ``encode_frame``/``decode_frame`` — no fork, socket, thread
or sleep.  A one-worker run that way ends bitwise where the ``process``
backend does.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

from repro.comm import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    DiffFrame,
    GradientFrame,
    ModelFrame,
    ServerService,
    TelemetryFrame,
    WorkerSession,
    decode_frame,
    encode_frame,
    run_worker_loop,
)
from repro.comm.serve_core import ServeCore
from repro.core.methods import Hyper
from repro.data.synthetic import make_blobs
from repro.exec import RemoteTrainer, RunConfig
from repro.exec.remote import build_remote_worker
from repro.nn import MLP
from repro.ps.messages import DiffMessage, GradientMessage, ModelMessage


class _Node:
    """A worker-node double: counts its steps, records what it applies."""

    def __init__(self, worker_id=0, fail_on=None):
        self.worker_id = worker_id
        self.fail_on = fail_on
        self.samples_processed = 0
        self.last_loss = float("nan")
        self.applied = []

    def compute_step(self):
        if self.fail_on is not None and self.samples_processed >= self.fail_on:
            raise ZeroDivisionError("synthetic failure")
        self.samples_processed += 1
        self.last_loss = 1.0 / self.samples_processed
        return GradientMessage(self.worker_id, {"w": np.ones(2)}, self.samples_processed)

    def apply_reply(self, msg):
        self.applied.append(msg)

    def worker_state_bytes(self):
        return 64


def _diff(worker_id=0):
    return DiffFrame(DiffMessage(worker_id, {"w": np.ones(2)}, server_timestamp=1, staleness=0))


def _kinds(frames):
    return [f.op if isinstance(f, ControlFrame) else type(f).__name__ for f in frames]


class TestWorkerSession:
    def test_clean_path_frame_sequence(self):
        node = _Node(worker_id=3)
        session = WorkerSession(node)
        sent = [session.join()]
        session.apply(ModelFrame(ModelMessage(3, {}, 0, 0)))
        for _ in range(2):
            sent.append(session.upload())
            session.apply(_diff(3))
        sent += list(session.closing())
        assert _kinds(sent) == [
            CONTROL_JOIN, "GradientFrame", "GradientFrame", CONTROL_LEAVE, "CloseFrame",
        ]
        assert all(f.worker_id == 3 for f in sent)
        # each upload carries its own step's message and loss
        assert [f.message.local_iteration for f in sent[1:3]] == [1, 2]
        assert [f.loss for f in sent[1:3]] == [1.0, 0.5]
        assert len(node.applied) == 3 and isinstance(node.applied[0], ModelMessage)
        close = sent[-1]
        assert close.error is None
        assert close.samples_processed == 2 and close.worker_state_bytes == 64

    def test_error_path_sends_no_leave_and_names_the_error(self):
        node = _Node(worker_id=1, fail_on=1)
        session = WorkerSession(node)
        session.upload()
        with pytest.raises(ZeroDivisionError):
            session.upload()
        (close,) = session.closing("ZeroDivisionError: synthetic failure")
        assert isinstance(close, CloseFrame)
        assert close.error == "ZeroDivisionError: synthetic failure"
        assert close.samples_processed == 1  # partial accounting still attached

    def test_telemetry_only_when_given_spans_read_as_the_frames_are_taken(self):
        spans = [{"name": "worker.step"}]
        frames = WorkerSession(_Node()).closing(spans=lambda: list(spans))
        leave = next(frames)
        spans.append({"name": "comm.send"})  # the leave's own send
        telemetry, close = frames
        assert leave.op == CONTROL_LEAVE
        assert isinstance(telemetry, TelemetryFrame) and len(telemetry.spans) == 2
        assert isinstance(close, CloseFrame)
        assert _kinds(WorkerSession(_Node()).closing("E: x", spans=list)) == [
            "TelemetryFrame", "CloseFrame",
        ]

    @pytest.mark.parametrize(
        "frame",
        [
            CloseFrame(worker_id=0),
            TelemetryFrame(worker_id=0),
            ControlFrame(0, CONTROL_JOIN),
            GradientFrame(GradientMessage(0, {}, 0), loss=0.5),
        ],
        ids=["close", "telemetry", "control", "gradient"],
    )
    def test_a_frame_that_is_not_a_reply_is_refused_and_applies_nothing(self, frame):
        node = _Node()
        with pytest.raises(ValueError, match=type(frame).__name__):
            WorkerSession(node).apply(frame)
        assert node.applied == []

    def test_the_node_is_looked_up_at_each_call(self):
        node = _Node()
        session = WorkerSession(node)
        calls = []
        step = node.compute_step
        node.compute_step = lambda: calls.append("compute") or step()
        node.apply_reply = lambda msg: calls.append("apply")
        session.apply(_diff())
        session.upload()
        assert calls == ["apply", "compute"]

    def test_session_imports_no_transport_and_calls_no_channel(self):
        tree = ast.parse(inspect.getsource(inspect.getmodule(WorkerSession)))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert not imported & {"socket", "select", "multiprocessing", "time"}
        assert not imported & {"channel", "pipe", "protocol", "service", "socket", "sim"}
        called = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        channel_methods = {"send", "send_raw", "recv", "recv_raw", "close", "accept", "waitable"}
        assert not called & channel_methods


class _RepliesWith:
    """A worker channel that answers every frame with ``reply``."""

    def __init__(self, reply):
        self.reply = reply
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)

    def recv(self):
        return self.reply

    def close(self):
        pass


def test_run_worker_loop_refuses_a_frame_that_is_not_a_reply():
    node = _Node(worker_id=2)
    channel = _RepliesWith(CloseFrame(worker_id=0))
    with pytest.raises(ValueError, match="worker 2 expected a reply, got a CloseFrame"):
        run_worker_loop(node, channel, iterations=2)
    assert node.applied == [] and node.samples_processed == 0
    assert _kinds(channel.sent) == [CONTROL_JOIN, "CloseFrame"]
    assert channel.sent[-1].error.startswith("ValueError: worker 2 expected a reply")


# -- whole runs in memory ---------------------------------------------------
def _config(num_workers: int, method: str = "dgs", iterations: int = 6) -> RunConfig:
    return RunConfig(
        method,
        lambda: MLP(12, (24,), 4, seed=7),
        make_blobs(n_samples=400, num_classes=4, dim=12, sep=2.5, noise=0.8, seed=1),
        num_workers=num_workers,
        batch_size=16,
        total_iterations=iterations * num_workers,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
        seed=0,
    )


def _run_in_memory(config: RunConfig):
    """``config``'s workers as sessions wired to one core, stepping in
    turn; every frame crosses as bytes.  Returns the server, the core's
    report and the frames each worker sent, by kind."""
    trainer = RemoteTrainer(config, "pipe")  # its server, built as the backend builds it
    server = trainer.server
    core = ServeCore(ServerService(server), stats=server.stats)
    sessions = {
        f"w{w}": WorkerSession(build_remote_worker(config, w)) for w in range(config.num_workers)
    }
    sent = {key: [] for key in sessions}

    def exchange(key, frame):
        sent[key].append(frame)
        sends, _ = core.record(key, bytes(encode_frame(frame)), 0.0)
        return [decode_frame(bytes(encode_frame(reply))) for to, reply in sends if to == key]

    for key, session in sessions.items():
        core.add(key, 0.0)
        (reply,) = exchange(key, session.join())
        session.apply(reply)
    for _ in range(config.iterations_per_worker()):
        for key, session in sessions.items():
            (reply,) = exchange(key, session.upload())
            session.apply(reply)
    for key, session in sessions.items():
        for frame in session.closing():
            assert exchange(key, frame) == []
    return server, core.report, {key: _kinds(frames) for key, frames in sent.items()}


@pytest.mark.parametrize("method", ["dgs", "asgd"])
def test_one_worker_in_memory_is_bitwise_the_process_backend(method):
    config = _config(1, method)
    server, report, _ = _run_in_memory(config)
    process = RemoteTrainer(config, "pipe")
    result = process.run()
    assert result.errors == [] and report.errors == []
    assert report.samples_processed == result.samples_processed == 6 * 16
    assert server.timestamp == process.server.timestamp == 6
    want = process.server.global_model()
    got = server.global_model()
    assert list(got) == list(want)
    for name in want:
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes()


def test_two_workers_in_memory_send_the_frames_of_a_process_run():
    server, report, kinds = _run_in_memory(_config(2, iterations=4))
    assert report.clean_closes == 2 and report.errors == []
    assert server.timestamp == 8 and report.samples_processed == 8 * 16
    for sent in kinds.values():
        assert sent == [CONTROL_JOIN, *["GradientFrame"] * 4, CONTROL_LEAVE, "CloseFrame"]
