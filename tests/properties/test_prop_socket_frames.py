"""Property tests: every frame kind round-trips over a real TCP socket.

The frame codec itself is property-tested in ``test_prop_frames``; this
module pins the *transport*: a loopback :class:`SocketChannel` pair must
deliver any frame the codec can produce byte-identically — including the
length-prefix reassembly of large frames that arrive in multiple TCP
segments, and the shard id in the raw bytes' header.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    DiffFrame,
    GradientFrame,
    ModelFrame,
    TelemetryFrame,
)
from repro.comm.frames import decode_frame
from repro.comm.socket import SocketChannel, SocketListener
from repro.compression import SparseTensor
from repro.ps.messages import DiffMessage, GradientMessage, ModelMessage

f32_exact = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


class _LoopbackPair:
    """A connected (client, server) SocketChannel pair on 127.0.0.1."""

    def __init__(self) -> None:
        self.listener = SocketListener()
        host, port = self.listener.address
        self.client = SocketChannel.connect(host, port, retry_for_s=5.0)
        self.server = self.listener.accept()

    def roundtrip(self, frame):
        """Send client → server; return (decoded frame, raw shard id)."""
        self.client.send(frame)
        raw = self.server.recv_raw()
        (shard,) = struct.unpack_from("<h", raw, 2)  # the header's shard slot
        return decode_frame(raw), shard

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.listener.close()


@pytest.fixture(scope="module")
def pair():
    p = _LoopbackPair()
    yield p
    p.close()


def _dense_dict(draw_result):
    return {k: np.asarray(v, dtype=np.float64) for k, v in draw_result.items()}


@st.composite
def dense_models(draw):
    layers = draw(st.integers(1, 3))
    model = {}
    for i in range(layers):
        n = draw(st.integers(1, 48))
        model[f"layer{i}.w"] = np.array(
            draw(st.lists(f32_exact, min_size=n, max_size=n)), dtype=np.float64
        )
    return model


@st.composite
def sparse_models(draw):
    n = draw(st.integers(1, 48))
    nnz = draw(st.integers(0, n))
    idx = np.array(
        sorted(draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz, unique=True))),
        dtype=np.int64,
    )
    vals = np.array(draw(st.lists(f32_exact, min_size=nnz, max_size=nnz)), dtype=np.float64)
    return {"w": SparseTensor(idx, vals, (n,))}


def _as_f32(model):
    return {
        k: np.asarray(v if isinstance(v, np.ndarray) else v.to_dense(), np.float64)
        .astype(np.float32)
        .astype(np.float64)
        for k, v in model.items()
    }


def _received_dense(model):
    return {
        k: np.asarray(v if isinstance(v, np.ndarray) else v.to_dense(), np.float64)
        for k, v in model.items()
    }


@given(model=dense_models(), worker=st.integers(0, 1000), loss=f32_exact, it=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_gradient_frame_over_tcp(pair, model, worker, loss, it):
    out, shard = pair.roundtrip(
        GradientFrame(GradientMessage(worker, model, it), loss=float(loss))
    )
    assert isinstance(out, GradientFrame)
    assert shard == -1  # unrouted: shard ids are stamped by the sharded path
    assert out.worker_id == worker
    assert out.loss == float(loss)
    assert out.message.local_iteration == it
    got, want = _received_dense(out.message.payload), _as_f32(model)
    assert got.keys() == want.keys()
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])


@given(model=sparse_models(), ts=st.integers(0, 10**6), staleness=st.integers(0, 10**4))
@settings(max_examples=25, deadline=None)
def test_diff_frame_over_tcp(pair, model, ts, staleness):
    out, _ = pair.roundtrip(DiffFrame(DiffMessage(3, model, ts, staleness)))
    assert isinstance(out, DiffFrame)
    assert out.message.server_timestamp == ts
    assert out.message.staleness == staleness
    got, want = _received_dense(out.message.payload), _as_f32(model)
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])


@given(model=dense_models(), ts=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_model_frame_over_tcp(pair, model, ts):
    out, _ = pair.roundtrip(ModelFrame(ModelMessage(1, model, ts, 0)))
    assert isinstance(out, ModelFrame)
    assert out.message.server_timestamp == ts
    got, want = _received_dense(out.message.payload), _as_f32(model)
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])


@given(
    worker=st.integers(0, 2**31 - 1),
    samples=st.none() | st.integers(0, 2**62),
    state=st.none() | st.integers(0, 2**62),
    error=st.none() | st.text(min_size=1, max_size=100),
)
@settings(max_examples=25, deadline=None)
def test_close_frame_over_tcp(pair, worker, samples, state, error):
    frame = CloseFrame(
        worker_id=worker, samples_processed=samples, worker_state_bytes=state, error=error
    )
    out, shard = pair.roundtrip(frame)
    assert out == frame
    assert shard == -1  # control plane never shard-routes


_json_scalars = st.none() | st.booleans() | st.integers(-(2**53), 2**53) | st.text(max_size=20)
_span_records = st.fixed_dictionaries(
    {
        "type": st.just("span"),
        "name": st.text(min_size=1, max_size=40),
        "ts": st.floats(0, 1e6, allow_nan=False),
        "dur": st.floats(0, 1e3, allow_nan=False),
    },
    optional={"args": st.dictionaries(st.text(min_size=1, max_size=10), _json_scalars, max_size=3)},
)


@given(worker=st.integers(0, 2**31 - 1), spans=st.lists(_span_records, max_size=6))
@settings(max_examples=25, deadline=None)
def test_telemetry_frame_over_tcp(pair, worker, spans):
    out, shard = pair.roundtrip(TelemetryFrame(worker_id=worker, spans=tuple(spans)))
    assert isinstance(out, TelemetryFrame)
    assert out.worker_id == worker
    assert list(out.spans) == spans
    assert shard == -1


@given(worker=st.integers(0, 2**31 - 1), op=st.sampled_from([CONTROL_JOIN, CONTROL_LEAVE]))
@settings(max_examples=25, deadline=None)
def test_control_frame_over_tcp(pair, worker, op):
    out, shard = pair.roundtrip(ControlFrame(worker_id=worker, op=op))
    assert out == ControlFrame(worker_id=worker, op=op)
    assert shard == -1


def test_wire_counters_exclude_length_prefix(pair):
    """Sender and receiver count the same frame bytes, prefix excluded."""
    sent0, recv0 = pair.client.wire_bytes_sent, pair.server.wire_bytes_received
    from repro.comm.frames import encode_frame

    frame = CloseFrame(worker_id=0, samples_processed=1, worker_state_bytes=2)
    pair.client.send(frame)
    pair.server.recv()
    nbytes = len(encode_frame(frame))
    assert pair.client.wire_bytes_sent - sent0 == nbytes
    assert pair.server.wire_bytes_received - recv0 == nbytes


def test_large_frame_reassembles_across_tcp_segments(pair):
    """A frame far beyond one TCP segment arrives byte-identically."""
    big = {"w": np.arange(300_000, dtype=np.float64)}
    out, _ = pair.roundtrip(ModelFrame(ModelMessage(0, big, 5, 0)))
    np.testing.assert_array_equal(
        out.message.payload["w"], big["w"].astype(np.float32).astype(np.float64)
    )
