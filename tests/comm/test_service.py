"""The serve loop over real socket and pipe channels, and its core in memory.

The trainers exercise the happy path end-to-end; these tests drive the
loop directly from a fake worker thread so each branch is pinned in
isolation: elastic accept through the listener, the join/leave control
handshake, every way a channel ends (one parametrized test), a malformed
frame, straggler eviction, close accounting, and shard-addressed
sub-frames against a sharded server.  ``TestServeCore`` feeds the same
endings straight to :class:`~repro.comm.serve_core.ServeCore`, with no
fork, socket, thread or sleep.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing as mp
import threading

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
    TelemetryFrame,
    encode_frame,
    serve_channels,
)
from repro.comm.pipe import PipeChannel
from repro.comm.serve_core import ServeCore
from repro.comm.service import ServerService
from repro.comm.socket import SocketChannel, SocketListener
from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.exec.common import build_server
from repro.nn import MLP
from repro.ps.membership import WorkerDirectory
from repro.ps.messages import DiffMessage, GradientMessage


NUM_SHARDS = 4  # MLP(6, (8,), 3) has exactly 4 tensors -> 4 non-empty shards


def _make_service(num_workers: int = 2, num_shards: int = 1, method: str = "asgd"):
    model = MLP(6, (8,), 3, seed=2)
    server = build_server(
        get_method(method),
        parameters_of(model),
        num_workers,
        Hyper(lr=0.1, momentum=0.0),
        num_shards=num_shards,
    )
    service = ServerService(server)
    return service, server, service.membership


def _grad_for(server, worker_id: int, scale: float = 0.01):
    payload = {
        name: np.full_like(buf, scale, dtype=np.float64)
        for name, buf in server.global_model().items()
    }
    return GradientFrame(GradientMessage(worker_id, payload, 0), loss=0.5)


def _payload_for(server, worker_id: int, round_no: int):
    """Deterministic dense gradient, unique per (worker, round)."""
    scale = 0.01 * (worker_id + 1) + 0.001 * (round_no + 1)
    return {
        name: np.full_like(np.asarray(buf), scale, dtype=np.float64)
        for name, buf in server.global_model().items()
    }


def _whole_step(channel, server, worker_id: int, round_no: int):
    """One exchange as a single whole-server frame."""
    payload = _payload_for(server, worker_id, round_no)
    channel.send(GradientFrame(GradientMessage(worker_id, payload, round_no), loss=0.5))
    reply = channel.recv()
    assert reply.shard == -1
    return reply.message.payload


def _fanout_step(channel, server, worker_id: int, round_no: int):
    """One exchange as shard-addressed sub-frames: send them all, await every
    reply (keyed by the reply's shard stamp), return the merged payload."""
    parts = server.partition.split(_payload_for(server, worker_id, round_no))
    for s, part in enumerate(parts):
        channel.send(
            GradientFrame(GradientMessage(worker_id, part, round_no), loss=0.5, shard=s)
        )
    replies = [None] * len(parts)
    for _ in parts:
        reply = channel.recv()
        assert reply.shard >= 0, "a shard-addressed reply must carry its shard id"
        assert replies[reply.shard] is None, "duplicate reply for one shard"
        replies[reply.shard] = reply
    return server.partition.merge([r.message.payload for r in replies])


def _run_driver(target, serve_fn):
    """Run ``target`` on a worker thread while ``serve_fn`` blocks; re-raise
    any driver-side failure so asserts in the thread actually fail the test."""
    failures: "list[BaseException]" = []

    def wrapped():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    t = threading.Thread(target=wrapped)
    t.start()
    try:
        report = serve_fn()
    finally:
        t.join(timeout=30)
    assert not t.is_alive(), "driver thread wedged"
    if failures:
        raise failures[0]
    return report


def _serve(service, server, listener, n_workers, **kwargs):
    return serve_channels(
        [],
        service,
        stats=server.stats,
        listener=listener,
        expected_closes=n_workers,
        **kwargs,
    )


class TestElasticServe:
    def test_join_train_leave_close_accounting(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            reply = ch.recv()
            assert isinstance(reply, ModelFrame)
            ch.send(_grad_for(server, 0))
            assert ch.recv() is not None
            ch.send(ControlFrame(0, CONTROL_LEAVE))
            ch.send(CloseFrame(worker_id=0, samples_processed=16, worker_state_bytes=64))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert (membership.snapshot()["joins"], membership.snapshot()["leaves"]) == (1, 1)
        assert report.clean_closes == 1 and report.errors == []
        assert report.updates == 1
        assert report.samples_processed == 16
        assert report.worker_state_bytes == 64
        assert membership.members == {0: "left"}

    def test_join_bootstraps_vk_to_current_model(self):
        """Eq. 5's elastic extension: a joiner starts with v_k == M_t."""
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        done = threading.Event()

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            for _ in range(3):
                ch.send(_grad_for(server, 0))
                ch.recv()
            # second worker joins mid-run, against a moved M_t
            late = SocketChannel.connect(host, port)
            late.send(ControlFrame(1, CONTROL_JOIN))
            reply = late.recv()
            assert isinstance(reply, ModelFrame)
            done.set()
            late.send(CloseFrame(worker_id=1))
            ch.send(CloseFrame(worker_id=0))
            late.close()
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 2)
        finally:
            listener.close()
            t.join(timeout=10)
        assert done.is_set() and report.errors == []
        assert server.num_workers == 2  # the join of the next id grew the server by one
        assert membership.snapshot()["joins"] == 2
        # after bootstrap, the joiner's reference model equals θ_t exactly
        joined = server.worker_model(1)
        current = server.global_model()
        for name in current:
            np.testing.assert_array_equal(joined[name], current[name])

    def test_crash_without_close_frame_is_reported(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            ch.close()  # vanish: no leave, no close frame

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert len(report.errors) == 1 and report.clean_closes == 0
        assert any("without a close frame" in e for e in report.errors)
        assert membership.members == {0: "crash"}

    def test_straggler_eviction(self):
        service, server, membership = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        release = threading.Event()

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            ch.recv()
            release.wait(timeout=30)  # go silent until the server evicts us
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(
                service, server, listener, 1, straggler_timeout_s=0.4
            )
        finally:
            release.set()
            listener.close()
            t.join(timeout=10)
        assert report.evictions == 1
        assert any("straggler" in e for e in report.errors)
        assert membership.members == {0: "evicted"}
        assert membership.snapshot()["evictions"] == 1

    def test_telemetry_absorbed_without_reply(self):
        service, server, _ = _make_service(num_workers=1)
        listener = SocketListener()
        host, port = listener.address
        spans = ({"type": "span", "name": "worker.step", "ts": 0.0, "dur": 1.0},)

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(TelemetryFrame(worker_id=0, spans=spans))
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert 0 in report.telemetry
        assert list(report.telemetry[0].spans) == list(spans)

    def test_join_without_membership_still_bootstraps(self):
        """A service built without a directory builds its own: the join
        bootstraps the worker and is recorded there."""
        model = MLP(6, (8,), 3, seed=2)
        server = build_server(get_method("asgd"), parameters_of(model), 1, Hyper(lr=0.1))
        service = ServerService(server)
        listener = SocketListener()
        host, port = listener.address

        def worker():
            ch = SocketChannel.connect(host, port)
            ch.send(ControlFrame(0, CONTROL_JOIN))
            assert isinstance(ch.recv(), ModelFrame)
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        t = threading.Thread(target=worker)
        t.start()
        try:
            report = _serve(service, server, listener, 1)
        finally:
            listener.close()
            t.join(timeout=10)
        assert report.clean_closes == 1
        assert isinstance(service.membership, WorkerDirectory)
        assert service.membership.snapshot()["joins"] == 1


class TestMalformedFrame:
    def test_garbage_from_one_worker_does_not_stop_the_server(self):
        """Bytes that are not a frame crash *that* channel only: the server
        keeps serving, and the well-behaved worker finishes every step."""
        service, server, membership = _make_service(num_workers=2)
        ends = [mp.Pipe(duplex=True) for _ in range(2)]
        server_ends = [PipeChannel(a) for a, _ in ends]
        good, bad = (PipeChannel(b) for _, b in ends)
        steps = 5
        completed = []

        def driver():
            for w, ch in ((0, good), (1, bad)):
                ch.send(ControlFrame(w, CONTROL_JOIN))
                assert isinstance(ch.recv(), ModelFrame)
            _whole_step(bad, server, 1, 0)
            bad.send_raw(b"not a repro.comm frame")
            for r in range(steps):
                _whole_step(good, server, 0, r)
                completed.append(r)
            good.send(ControlFrame(0, CONTROL_LEAVE))
            good.send(CloseFrame(worker_id=0, samples_processed=steps))
            good.close()
            bad.close()

        report = _run_driver(
            driver, lambda: serve_channels(server_ends, service, stats=server.stats)
        )
        assert len(report.errors) == 1
        assert "worker 1" in report.errors[0] and "malformed" in report.errors[0]
        assert report.clean_closes == 1
        assert completed == list(range(steps))
        assert report.updates == steps + 1
        assert report.samples_processed == steps
        assert membership.members == {0: "left", 1: "crash"}

    @pytest.mark.parametrize(
        "bad_frame, error",
        [
            # the worker id is a u32 on the wire: 2 is past a 2-worker server
            (lambda server: _grad_for(server, 2), "cannot apply"),
            # the join's worker id is an i32 on the wire
            (lambda server: ControlFrame(-1, CONTROL_JOIN), "cannot apply"),
            # a rejected frame's id is not the channel's: worker 0 stays up
            # (worker 0's open channel holds the id, so it is refused first)
            (
                lambda server: GradientFrame(
                    GradientMessage(0, {"no.such.layer": np.zeros(3)}, 0), loss=0.5
                ),
                "sent a frame as worker 0",
            ),
        ],
        ids=[
            "gradient-from-unknown-worker",
            "join-with-negative-id",
            "bad-gradient-claiming-a-live-worker",
        ],
    )
    def test_frame_the_server_cannot_apply_crashes_only_its_channel(self, bad_frame, error):
        """A frame naming a worker the server holds no state for, or one
        that does not fit its layers, is that peer's failure: its channel
        crashes, the membership directory is untouched by the id it
        claimed, and the other worker finishes its run."""
        service, server, membership = _make_service(num_workers=2)
        ends = [mp.Pipe(duplex=True) for _ in range(2)]
        server_ends = [PipeChannel(a) for a, _ in ends]
        good, bad = (PipeChannel(b) for _, b in ends)
        steps = 3

        def driver():
            good.send(ControlFrame(0, CONTROL_JOIN))
            assert isinstance(good.recv(), ModelFrame)
            bad.send(bad_frame(server))
            for r in range(steps):
                _whole_step(good, server, 0, r)
            good.send(ControlFrame(0, CONTROL_LEAVE))
            good.send(CloseFrame(worker_id=0, samples_processed=steps))
            good.close()
            bad.close()

        def serve():
            try:
                return serve_channels(server_ends, service, stats=server.stats)
            finally:  # if the loop raised, unblock the driver
                for channel in server_ends:
                    channel.close()

        report = _run_driver(driver, serve)
        assert report.clean_closes == 1
        assert report.updates == steps and report.samples_processed == steps
        assert len(report.errors) == 1 and error in report.errors[0]
        assert server.num_workers == 2 and server.timestamp == steps
        assert membership.members == {0: "left"}
        assert [event for _, event, _ in membership.events] == ["join", "left"]

    @pytest.mark.parametrize("cut", [2, 8, 40], ids=["header", "loss", "body"])
    def test_truncated_gradient_frame_is_a_channel_crash(self, cut):
        service, server, _ = _make_service(num_workers=1)
        a, b = mp.Pipe(duplex=True)
        raw = bytes(encode_frame(_grad_for(server, 0)))

        def driver():
            ch = PipeChannel(b)
            ch.send_raw(raw[:cut])
            ch.close()

        report = _run_driver(driver, lambda: serve_channels([PipeChannel(a)], service))
        assert report.clean_closes == 0 and report.updates == 0
        assert len(report.errors) == 1 and "malformed" in report.errors[0]

    def test_join_far_past_the_worker_count_allocates_nothing(self):
        """A join may name an id the server holds or the next one; a join
        of id 50 would grow a 2-worker DGS server by 49 model-sized v_k.
        It crashes only its own channel, and the server ends as large as
        in a run the bad join never reached."""
        steps = 3

        def run(bad_join: bool):
            service, server, membership = _make_service(num_workers=2, method="dgs")
            ends = [mp.Pipe(duplex=True) for _ in range(2 if bad_join else 1)]
            server_ends = [PipeChannel(a) for a, _ in ends]
            good, *bad = (PipeChannel(b) for _, b in ends)

            def driver():
                for channel in bad:
                    channel.send(ControlFrame(50, CONTROL_JOIN))
                good.send(ControlFrame(0, CONTROL_JOIN))
                assert isinstance(good.recv(), ModelFrame)
                for r in range(steps):
                    _whole_step(good, server, 0, r)
                good.send(ControlFrame(0, CONTROL_LEAVE))
                good.send(CloseFrame(worker_id=0, samples_processed=steps))
                for channel in (good, *bad):
                    channel.close()

            report = _run_driver(
                driver, lambda: serve_channels(server_ends, service, stats=server.stats)
            )
            assert report.clean_closes == 1 and report.updates == steps
            assert membership.members == {0: "left"}
            assert server.num_workers == 2
            return report, server.server_state_bytes()

        clean_report, clean_bytes = run(bad_join=False)
        report, state_bytes = run(bad_join=True)
        assert state_bytes == clean_bytes
        assert clean_report.errors == []
        assert len(report.errors) == 1 and "worker 50" in report.errors[0]


def _join(channel, worker_id: int = 1) -> None:
    channel.send(ControlFrame(worker_id, CONTROL_JOIN))
    assert isinstance(channel.recv(), ModelFrame)


# What worker 1 does on its channel, one function per way a channel ends.
def _end_clean_close(channel, server):
    _join(channel)
    channel.send(ControlFrame(1, CONTROL_LEAVE))
    channel.send(CloseFrame(worker_id=1, samples_processed=4))


def _end_close_with_error(channel, server):
    _join(channel)
    channel.send(CloseFrame(worker_id=1, samples_processed=8, error="RuntimeError: boom"))


def _end_eof(channel, server):
    _join(channel)
    channel.close()  # hard death: no leave, no close frame


def _end_not_a_frame(channel, server):
    _join(channel)
    channel.send_raw(b"not a repro.comm frame")


def _end_reply_kind(channel, server):
    _join(channel)
    channel.send(DiffFrame(DiffMessage(1, {}, server_timestamp=0, staleness=0)))


def _end_cannot_apply(channel, server):
    _join(channel)
    channel.send(GradientFrame(GradientMessage(1, {"no.such.layer": np.zeros(3)}, 0), loss=0.5))


def _end_join_out_of_range(channel, server):
    channel.send(ControlFrame(50, CONTROL_JOIN))


def _end_join_send_fails(channel, server):
    channel.send(ControlFrame(1, CONTROL_JOIN))  # its reply never goes out


def _end_reply_send_fails(channel, server):
    _join(channel)
    channel.send(_grad_for(server, 1))  # its reply never goes out


def _end_straggler(channel, server):
    _join(channel)  # then silent until the server evicts it


def _end_id_mismatch(channel, server):
    _join(channel)
    channel.send(_grad_for(server, 0))  # a step in worker 0's name


def _end_step_as_live_worker(channel, server):
    channel.send(_grad_for(server, 0))  # never joined; worker 0's channel is open


def _end_telemetry_as_live_worker(channel, server):
    channel.send(TelemetryFrame(worker_id=0, spans=({"name": "forged"},)))
    channel.close()


class _RepliesFailAfter(PipeChannel):
    """Server end of a pipe whose sends raise once ``ok`` replies went out."""

    def __init__(self, connection, ok: int) -> None:
        super().__init__(connection)
        self.ok = ok

    def send(self, frame) -> None:
        if self.ok == 0:
            raise BrokenPipeError("the peer stopped reading")
        self.ok -= 1
        super().send(frame)


#: id → (what worker 1 does, replies its server end can send, how the
#: report's error line starts, worker 1's directory entry afterwards)
CHANNEL_ENDS = {
    "clean-close": (_end_clean_close, None, None, "left"),
    "close-with-error": (_end_close_with_error, None, "worker 1: RuntimeError: boom", "crash"),
    "eof": (_end_eof, None, "worker 1 channel closed without a close frame", "crash"),
    "not-a-frame": (_end_not_a_frame, None, "worker 1 sent a malformed frame", "crash"),
    "reply-kind": (_end_reply_kind, None, "worker 1 sent an unexpected DiffFrame", "crash"),
    "cannot-apply": (_end_cannot_apply, None, "worker 1 sent a frame the server cannot apply", "crash"),
    "join-out-of-range": (
        _end_join_out_of_range, None, "worker 50 sent a frame the server cannot apply", None
    ),
    "join-send-fails": (_end_join_send_fails, 0, "worker 1 channel broke during join", "crash"),
    "reply-send-fails": (
        _end_reply_send_fails, 1, "worker 1 channel broke while sending the reply", "crash"
    ),
    "straggler": (_end_straggler, None, "worker 1 evicted as straggler", "evicted"),
    "id-mismatch": (_end_id_mismatch, None, "worker 1 sent a frame as worker 0", "crash"),
    "step-as-live-worker": (_end_step_as_live_worker, None, "worker sent a frame as worker 0", None),
    "telemetry-as-live-worker": (
        _end_telemetry_as_live_worker, None, "worker sent a frame as worker 0", None
    ),
}


def _check_end(case, report, membership) -> None:
    """What every ending leaves, through the driver or in memory."""
    _, _, error, reason = CHANNEL_ENDS[case]
    assert report.clean_closes + len(report.errors) == 2
    assert report.updates == 1  # worker 0's step; worker 1 never completes one
    if error is None:
        assert report.errors == []
    else:
        assert len(report.errors) == 1 and report.errors[0].startswith(error)
    # close-frame accounting survives a close that reports an error
    closed = {"clean-close": 4, "close-with-error": 8}.get(case, 0)
    assert report.samples_processed == 4 + closed
    members = membership.members
    assert members.get(0) == "left"
    assert members.get(1) == reason
    assert set(members) <= {0, 1}
    assert report.telemetry == {}  # no channel shipped spans under its own id


def _honest_session(channel, server) -> None:
    """Worker 0's clean session beside every ending, after its join."""
    _whole_step(channel, server, 0, 0)
    channel.send(ControlFrame(0, CONTROL_LEAVE))
    channel.send(CloseFrame(worker_id=0, samples_processed=4))


class TestEveryChannelEnd:
    """However a channel ends, the loop returns, counts it exactly once
    (a clean close or one error), deregisters only the id it used, and
    adds its wire bytes to the report.  Worker 0 runs a clean session on a
    second channel alongside, so each case also shows that one ending
    leaves the other channel alone.  Worker 0 joins before worker 1's
    channel acts, so an ending can be a claim on a live worker's id."""

    @pytest.mark.parametrize("case", list(CHANNEL_ENDS))
    def test_each_end_is_counted_once(self, case):
        act, ok_replies, _, _ = CHANNEL_ENDS[case]
        service, server, membership = _make_service(num_workers=2)
        pipes = [mp.Pipe(duplex=True) for _ in range(2)]
        honest, named = (PipeChannel(b) for _, b in pipes)
        (a0, _), (a1, _) = pipes
        served = [
            PipeChannel(a0),
            PipeChannel(a1) if ok_replies is None else _RepliesFailAfter(a1, ok_replies),
        ]

        def driver():
            _join(honest, 0)
            act(named, server)
            _honest_session(honest, server)
            for channel in (honest, named):
                try:
                    channel.recv()  # returns only when the server hangs up
                except (EOFError, OSError, ChannelClosed):
                    pass
                channel.close()

        timeout = 0.5 if case == "straggler" else None
        report = _run_driver(
            driver, lambda: serve_channels(served, service, straggler_timeout_s=timeout)
        )
        _check_end(case, report, membership)
        assert report.wire_bytes_up == honest.wire_bytes_sent + named.wire_bytes_sent
        assert report.wire_bytes_down == honest.wire_bytes_received + named.wire_bytes_received


class _InMemory:
    """A :class:`ServeCore` driven with no transport, on the test's thread.

    Each call a worker makes on its end is one core input, the core's
    replies land in per-channel inboxes, and the clock moves only when the
    test moves ``now``.  Channel keys are plain strings, so a core that
    called a channel method would fail.
    """

    def __init__(self, core: ServeCore) -> None:
        self.core = core
        self.now = 0.0
        self.inboxes: "dict[str, list]" = {}
        #: key → replies its sends deliver before they fail (None: all)
        self.ok: "dict[str, int | None]" = {}
        #: keys the core closed, in order
        self.closed: "list[str]" = []

    def open(self, key: str, ok: "int | None" = None) -> "_MemoryEnd":
        self.inboxes[key], self.ok[key] = [], ok
        self.core.add(key, self.now)
        return _MemoryEnd(self, key)

    def carry_out(self, output) -> None:
        sends, closes = output
        for key, frame in sends:
            if key in self.closed:
                continue
            if self.ok[key] == 0:
                self.carry_out(self.core.broken(key))
                continue
            if self.ok[key] is not None:
                self.ok[key] -= 1
            self.inboxes[key].append(frame)
        self.closed += closes


class _MemoryEnd:
    """A worker's end of an :class:`_InMemory` channel."""

    def __init__(self, net: _InMemory, key: str) -> None:
        self.net, self.key = net, key

    def send(self, frame) -> None:
        self.send_raw(bytes(encode_frame(frame)))

    def send_raw(self, raw: bytes) -> None:
        net = self.net
        assert self.key not in net.closed, "a send on a channel the server closed"
        net.carry_out(net.core.record(self.key, raw, net.now))

    def recv(self):
        return self.net.inboxes[self.key].pop(0)

    def close(self) -> None:
        if self.key not in self.net.closed:  # else the server hung up first
            self.net.carry_out(self.net.core.eof(self.key))


class TestServeCore:
    """The serve loop's logic with no fork, socket, thread or sleep."""

    @pytest.mark.parametrize("case", list(CHANNEL_ENDS))
    def test_each_end_is_counted_once(self, case):
        act, ok_replies, _, _ = CHANNEL_ENDS[case]
        service, server, membership = _make_service(num_workers=2)
        core = ServeCore(service, straggler_timeout_s=0.5 if case == "straggler" else None)
        net = _InMemory(core)
        honest, named = net.open("honest"), net.open("named", ok_replies)
        _join(honest, 0)
        act(named, server)
        _honest_session(honest, server)
        net.now = 1.0  # past the straggler budget
        net.carry_out(core.tick(net.now))
        _check_end(case, core.report, membership)
        assert core.ended == 2 and sorted(net.closed) == ["honest", "named"]

    def test_a_step_in_another_workers_name_moves_nothing_of_it(self):
        service, server, membership = _make_service(num_workers=2)
        net = _InMemory(ServeCore(service))
        w0, w1 = net.open("w0"), net.open("w1")
        _join(w0, 0)
        _whole_step(w0, server, 0, 0)
        _join(w1, 1)
        before = {name: np.array(v) for name, v in server.worker_model(0).items()}
        w1.send(_grad_for(server, 0))
        assert net.closed == ["w1"] and net.inboxes["w1"] == []
        assert server.timestamp == 1
        for name, value in server.worker_model(0).items():
            np.testing.assert_array_equal(value, before[name])
        assert membership.members == {0: "active", 1: "crash"}
        _whole_step(w0, server, 0, 1)  # worker 0 steps on
        assert server.timestamp == 2

    def test_a_channel_that_never_joined_cannot_step_as_a_live_worker(self):
        service, server, membership = _make_service(num_workers=2)
        net = _InMemory(ServeCore(service))
        w0, fresh = net.open("w0"), net.open("fresh")
        _join(w0, 0)
        _whole_step(w0, server, 0, 0)
        before = {name: np.array(v) for name, v in server.worker_model(0).items()}
        fresh.send(_grad_for(server, 0))
        assert net.closed == ["fresh"] and net.inboxes["fresh"] == []
        assert net.core.report.errors == ["worker sent a frame as worker 0 (crash)"]
        assert server.timestamp == 1
        for name, value in server.worker_model(0).items():
            np.testing.assert_array_equal(value, before[name])
        assert membership.members == {0: "active"}
        _whole_step(w0, server, 0, 1)
        assert server.timestamp == 2

    def test_telemetry_is_kept_under_the_channels_bound_id(self):
        service, server, _ = _make_service(num_workers=2)
        net = _InMemory(ServeCore(service))
        w0, fresh = net.open("w0"), net.open("fresh")
        _join(w0, 0)
        shipped = TelemetryFrame(worker_id=0, spans=({"name": "worker.step"},))
        w0.send(shipped)
        fresh.send(TelemetryFrame(worker_id=0, spans=({"name": "forged"},)))
        assert net.closed == ["fresh"]
        assert net.core.report.telemetry == {0: shipped}

    def test_a_worker_rejoins_once_its_old_channel_has_ended(self):
        service, server, membership = _make_service(num_workers=2)
        net = _InMemory(ServeCore(service))
        old, early = net.open("old"), net.open("early")
        _join(old, 1)
        early.send(ControlFrame(1, CONTROL_JOIN))  # the old channel is still open
        assert net.closed == ["early"] and net.inboxes["early"] == []
        assert membership.members == {1: "active"}
        old.close()  # EOF: the old channel ends, and the id is free
        _join(net.open("new"), 1)
        assert membership.members == {1: "active"}
        assert [event for _, event, _ in membership.events] == ["join", "crash", "join"]

    def test_a_worker_that_never_joins_is_bound_by_its_first_step(self):
        service, server, membership = _make_service(num_workers=2)
        net = _InMemory(ServeCore(service))
        w = net.open("w")
        _whole_step(w, server, 1, 0)
        w.send(_grad_for(server, 0))
        assert net.closed == ["w"]
        assert net.core.report.errors[0].startswith("worker 1 sent a frame as worker 0")
        assert membership.members == {1: "crash"}

    def test_a_step_counts_once_its_reply_is_known_sent(self):
        service, server, _ = _make_service(num_workers=1)
        losses = []
        core = ServeCore(service, on_update=losses.append)
        net = _InMemory(core)
        w = net.open("w")
        _whole_step(w, server, 0, 0)
        assert core.report.updates == 0 and losses == []
        net.carry_out(core.tick(net.now))
        assert core.report.updates == 1 and losses == [0.5]

    def test_core_imports_no_transport_and_calls_no_channel(self):
        tree = ast.parse(inspect.getsource(inspect.getmodule(ServeCore)))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert not imported & {"socket", "select", "multiprocessing", "time"}
        called = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        channel_methods = {"send", "send_raw", "recv", "recv_raw", "close", "accept", "waitable"}
        assert not called & channel_methods


class TestShardAddressedServe:
    """Shard-addressed sub-frames on the one serve loop: the loop routes by
    the header's shard id to ``handle_shard`` and stamps the reply, so a client
    that splits a step along the partition gets the whole-frame result."""

    ROUNDS = 6

    def _run(self, step):
        service, server, _ = _make_service(num_workers=1, num_shards=NUM_SHARDS)
        a, b = mp.Pipe(duplex=True)
        merged = []

        def driver():
            ch = PipeChannel(b)
            for r in range(self.ROUNDS):
                merged.append(step(ch, server, 0, r))
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        report = _run_driver(
            driver, lambda: serve_channels([PipeChannel(a)], service, stats=server.stats)
        )
        assert report.errors == []
        return server, report, merged

    def test_subframes_over_pipe_match_whole_frames_bitwise(self):
        whole_server, _, whole_replies = self._run(_whole_step)
        split_server, _, split_replies = self._run(_fanout_step)
        a, b = whole_server.global_model(), split_server.global_model()
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert whole_server.timestamp == split_server.timestamp
        for whole, split in zip(whole_replies, split_replies):
            assert list(whole) == list(split)
            for name in whole:
                np.testing.assert_array_equal(whole[name], split[name])
        assert whole_server.stats.upload_bytes == split_server.stats.upload_bytes

    def test_updates_count_steps_not_subframes(self):
        # ROUNDS steps x NUM_SHARDS sub-frames: the shard-0 sub-frame is the
        # step's one accounting token, so `updates` means worker steps
        _, whole, _ = self._run(_whole_step)
        _, split, _ = self._run(_fanout_step)
        assert whole.updates == split.updates == self.ROUNDS

    def test_split_step_outgrowing_the_pipe_buffer(self):
        """Both ends write blocking: a reply started while the client is
        still writing its next 1 MiB sub-frame would wedge the pair, so the
        loop answers a split step only once its last sub-frame is in."""
        theta0 = {f"w{i}": np.zeros((512, 512), dtype=np.float32) for i in range(NUM_SHARDS)}
        server = build_server(
            get_method("asgd"), theta0, 1, Hyper(lr=0.1, momentum=0.0), num_shards=NUM_SHARDS
        )
        a, b = mp.Pipe(duplex=True)
        reports = []
        serving = threading.Thread(
            target=lambda: reports.append(
                serve_channels([PipeChannel(a)], ServerService(server), stats=server.stats)
            ),
            daemon=True,
        )
        serving.start()

        def client():
            ch = PipeChannel(b)
            for r in range(2):
                _fanout_step(ch, server, 0, r)
            ch.send(CloseFrame(worker_id=0))
            ch.close()

        driving = threading.Thread(target=client, daemon=True)
        driving.start()
        driving.join(timeout=30)
        serving.join(timeout=30)
        assert not driving.is_alive() and not serving.is_alive(), "client and server wedged"
        assert reports[0].updates == 2 and reports[0].errors == []

    def test_control_plane_interleaved_with_subframes(self):
        """5 channels x 4 shards with a mid-run join, a crash at a step
        boundary, telemetry and leaves interleaved; then the membership
        audit trail."""
        service, server, membership = _make_service(num_workers=5, num_shards=NUM_SHARDS)
        listener = SocketListener()
        host, port = listener.address

        def driver():
            channels: "dict[int, SocketChannel]" = {}

            def join(worker_id: int):
                ch = SocketChannel.connect(host, port)
                ch.send(ControlFrame(worker_id, CONTROL_JOIN))
                assert isinstance(ch.recv(), ModelFrame)
                channels[worker_id] = ch

            for w in range(4):
                join(w)
            for r in range(self.ROUNDS):
                if r == 2:
                    join(4)  # mid-run join, against a moved M_t
                for w in sorted(channels):
                    if w == 2 and r == 4:
                        channels.pop(w).close()  # crash: no leave, no close frame
                        continue
                    _fanout_step(channels[w], server, w, r)
            channels[0].send(
                TelemetryFrame(
                    worker_id=0,
                    spans=({"type": "span", "name": "worker.step", "ts": 0.0, "dur": 1.0},),
                )
            )
            for w in sorted(channels):
                ch = channels[w]
                ch.send(ControlFrame(w, CONTROL_LEAVE))
                ch.send(CloseFrame(worker_id=w, samples_processed=10))
                ch.close()

        try:
            report = _run_driver(driver, lambda: _serve(service, server, listener, 5))
        finally:
            listener.close()
        assert membership.members == {0: "left", 1: "left", 2: "crash", 3: "left", 4: "left"}
        snap = membership.snapshot()
        assert (snap["joins"], snap["leaves"], snap["crashes"], snap["evictions"]) == (5, 4, 1, 0)
        assert report.clean_closes == 4 and len(report.errors) == 1
        assert any("without a close frame" in e for e in report.errors)
        assert 0 in report.telemetry
        assert report.samples_processed == 4 * 10
        # workers 0,1,3: 6 rounds; worker 2: rounds 0-3; worker 4: rounds 2-5
        assert report.updates == 3 * 6 + 4 + 4


class TestWorkerDirectory:
    def test_snapshot_counts_every_event_kind(self):
        service, server, membership = _make_service(num_workers=4)
        membership.register(0)
        membership.register(1)
        membership.register(2)
        membership.deregister(0)  # default reason: left
        membership.deregister(1, reason="crash")
        membership.deregister(2, reason="evicted")
        snap = membership.snapshot()
        assert snap["joins"] == 3
        assert snap["leaves"] == 1
        assert snap["crashes"] == 1
        assert snap["evictions"] == 1
        assert membership.active() == []

    def test_register_is_visible_as_active(self):
        _, _, membership = _make_service(num_workers=2)
        membership.register(1)
        assert membership.active() == [1]

    def test_join_events_carry_server_timestamp(self):
        _, server, membership = _make_service(num_workers=2)
        membership.register(0)
        [(worker, kind, ts)] = membership.events
        assert (worker, kind) == (0, "join")
        assert ts == server.timestamp
