"""Remote-backend parity: the transport must not change the math.

Dense ASGD in float64 is the substrate-independence probe the repo uses
everywhere (no sparsification ties, no dtype rounding): any loss-curve
divergence between transports is a transport bug, not noise.

* 1 worker, free-running: no scheduling freedom, so RemoteTrainer over
  pipes or TCP and an in-process dispatch through ``ServerService`` (with
  the same codec round-trips and the same join handshake) must agree
  bitwise.
* 2 workers: free-running interleavings are nondeterministic, so the
  2-worker pin drives both workers' channels *lockstep round-robin* from
  the test over each transport — same frame order ⇒ the server state,
  and every loss, must agree bitwise between TCP and in-proc dispatch.
* checkpoint → restore → continue over pipes or TCP reproduces the
  uninterrupted run's tail bitwise.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    GradientFrame,
    decode_frame,
    encode_frame,
)
from repro.comm.service import ServerService, serve_channels
from repro.comm.socket import SocketChannel, SocketListener
from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.data.loader import DataLoader
from repro.exec import RemoteTrainer, RunConfig
from repro.exec.common import build_server, build_worker, evaluate_global_scratch

DENSE = Hyper(lr=0.1, momentum=0.0)


def _config(tiny_dataset, tiny_model_factory, iterations, **fields):
    return RunConfig(
        "asgd",
        tiny_model_factory,
        tiny_dataset,
        num_workers=1,
        batch_size=16,
        total_iterations=iterations,
        hyper=DENSE,
        seed=0,
        **fields,
    )


def _remote_run(tiny_dataset, tiny_model_factory, iterations, transport, **fields):
    config = _config(tiny_dataset, tiny_model_factory, iterations, **fields)
    return RemoteTrainer(config, transport).run()


class _CodecChannel:
    """In-process reference transport: each frame is dispatched in place
    through ``service``, both directions round-tripped through the frame
    codec — the bytes a pipe or socket would deliver, with no scheduling."""

    def __init__(self, service):
        self.service = service
        self._pending = None

    def send(self, frame):
        frame = decode_frame(encode_frame(frame))
        if isinstance(frame, ControlFrame):
            reply = self.service.control(frame)
        elif isinstance(frame, GradientFrame):
            reply = self.service(frame)
        else:
            reply = None  # a close frame: nothing to dispatch
        if reply is not None:
            self._pending = decode_frame(encode_frame(reply))

    def recv(self):
        frame, self._pending = self._pending, None
        return frame

    def close(self):
        pass


class _Lockstep:
    """Drive N workers' channels round-robin from one thread.

    Removes the scheduling freedom that makes free-running multi-worker
    runs nondeterministic: every transport sees the identical frame
    sequence, so identical server math is a *bitwise* requirement.
    """

    def __init__(self, tiny_dataset, tiny_model_factory, num_workers):
        self.num_workers = num_workers
        self.loader = DataLoader(tiny_dataset, 16, seed=0)
        self.nodes = [
            build_worker(
                w,
                num_workers,
                tiny_model_factory(),
                self.loader,
                get_method("asgd"),
                DENSE,
                None,
                theta0=None,  # the join handshake installs θ0
            )
            for w in range(num_workers)
        ]

    def drive(self, channels, iterations):
        losses = []
        for ch, node in zip(channels, self.nodes):
            ch.send(ControlFrame(node.worker_id, CONTROL_JOIN))
            node.apply_reply(ch.recv().message)
        for _ in range(iterations):
            for ch, node in zip(channels, self.nodes):
                msg = node.compute_step()
                ch.send(GradientFrame(msg, node.last_loss))
                node.apply_reply(ch.recv().message)
                losses.append(node.last_loss)
        for ch, node in zip(channels, self.nodes):
            ch.send(ControlFrame(node.worker_id, CONTROL_LEAVE))
            ch.send(
                CloseFrame(
                    worker_id=node.worker_id,
                    samples_processed=node.samples_processed,
                    worker_state_bytes=node.worker_state_bytes(),
                )
            )
            ch.close()
        return losses


def _fresh_server(tiny_model_factory, num_workers):
    return build_server(
        get_method("asgd"), parameters_of(tiny_model_factory()), num_workers, DENSE
    )


@pytest.mark.parametrize("transport", ["tcp", "pipe"])
def test_one_worker_remote_bitwise_equal_to_inproc(
    tiny_dataset, tiny_model_factory, transport
):
    s = _remote_run(tiny_dataset, tiny_model_factory, 25, transport=transport)
    server = _fresh_server(tiny_model_factory, 1)
    losses = _Lockstep(tiny_dataset, tiny_model_factory, 1).drive(
        [_CodecChannel(ServerService(server))], 25
    )
    accuracy, loss = evaluate_global_scratch(tiny_model_factory(), server, tiny_dataset, 16)
    assert list(s.loss_vs_step.ys) == losses
    assert s.final_loss == loss
    assert s.final_accuracy == accuracy
    assert s.total_iterations == server.timestamp == 25


def test_two_worker_lockstep_socket_bitwise_equal_to_inproc(
    tiny_dataset, tiny_model_factory
):
    """2-worker dense-ASGD float64, identical frame order over TCP and
    in-proc dispatch: losses and final server model agree bitwise."""
    iterations = 12

    # --- TCP loopback, served by the real serve loop in a thread
    tcp_server = _fresh_server(tiny_model_factory, 2)
    listener = SocketListener()
    host, port = listener.address
    report = {}
    service = ServerService(tcp_server)

    def serve():
        report["r"] = serve_channels(
            [],
            service,
            stats=tcp_server.stats,
            listener=listener,
            expected_closes=2,
        )

    server_thread = threading.Thread(target=serve)
    server_thread.start()
    tcp_channels = [SocketChannel.connect(host, port) for _ in range(2)]
    try:
        tcp_losses = _Lockstep(tiny_dataset, tiny_model_factory, 2).drive(
            tcp_channels, iterations
        )
    finally:
        server_thread.join(timeout=30)
        listener.close()
    assert report["r"].errors == []
    assert service.membership.members == {0: "left", 1: "left"}

    # --- in-proc dispatch with the wire codec round-trip
    inproc_server = _fresh_server(tiny_model_factory, 2)
    service = ServerService(inproc_server)
    inproc_channels = [_CodecChannel(service) for _ in range(2)]
    inproc_losses = _Lockstep(tiny_dataset, tiny_model_factory, 2).drive(
        inproc_channels, iterations
    )

    assert tcp_losses == inproc_losses  # bitwise: float equality, no tolerance
    assert tcp_server.timestamp == inproc_server.timestamp == 2 * iterations
    tcp_model, inproc_model = tcp_server.global_model(), inproc_server.global_model()
    for name in tcp_model:
        np.testing.assert_array_equal(tcp_model[name], inproc_model[name])


@pytest.mark.parametrize("transport", ["tcp", "pipe"])
def test_remote_checkpoint_restore_continue_bitwise(
    tmp_path, tiny_dataset, tiny_model_factory, transport
):
    full = _remote_run(tiny_dataset, tiny_model_factory, 20, transport=transport)

    path = tmp_path / "mid.ckpt"
    first = _remote_run(
        tiny_dataset,
        tiny_model_factory,
        10,
        transport=transport,
        checkpoint_every=10,
        checkpoint_path=path,
    )
    resumed = _remote_run(
        tiny_dataset, tiny_model_factory, 10, transport=transport, restore_from=path
    )

    assert list(first.loss_vs_step.ys) == list(full.loss_vs_step.ys)[:10]
    assert list(resumed.loss_vs_step.ys) == list(full.loss_vs_step.ys)[10:]
    assert resumed.final_loss == full.final_loss
    assert resumed.final_accuracy == full.final_accuracy


def test_pipe_channels_carry_the_eviction_deadline(
    tiny_dataset, tiny_model_factory, monkeypatch
):
    """The straggler budget is also every server-side pipe's read deadline,
    as it is every TCP channel's: a pipe peer that stalls mid-frame is
    evicted instead of blocking the serve loop (``TestFrameBound`` in
    ``tests/comm/test_socket.py`` drives that peer)."""
    from repro.exec import remote

    deadlines = []

    class Recording(remote.PipeChannel):
        def __init__(self, connection, read_timeout_s=None):
            super().__init__(connection, read_timeout_s=read_timeout_s)
            deadlines.append(read_timeout_s)

    monkeypatch.setattr(remote, "PipeChannel", Recording)
    result = _remote_run(tiny_dataset, tiny_model_factory, 5, "pipe", evict_after_s=30.0)
    assert result.errors == [] and result.total_iterations == 5
    assert deadlines == [30.0]  # the worker's end, made in its own process, blocks
