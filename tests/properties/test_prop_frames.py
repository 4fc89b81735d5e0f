"""Property tests: every payload type round-trips through Frame encode/decode."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CloseFrame,
    DiffFrame,
    GradientFrame,
    TelemetryFrame,
    decode_frame,
    encode_frame,
)
from repro.compression import BitmapTensor, DenseTensor, QuantizedSparseTensor, SparseTensor
from repro.compression.qsgd import QSGDTensor
from repro.compression.terngrad import TernaryTensor
from repro.ps.messages import DiffMessage, GradientMessage

f32_exact = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)
pos_f32 = st.floats(min_value=0.125, max_value=1024.0, allow_nan=False, width=32)


@st.composite
def sparse_payloads(draw):
    """SparseTensor including the zero-nnz and scalar-shape edge cases."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 64))
        nnz = draw(st.integers(0, n))  # zero-nnz allowed
        idx = np.array(
            sorted(draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz, unique=True))),
            dtype=np.int64,
        )
        vals = np.array(draw(st.lists(f32_exact, min_size=nnz, max_size=nnz)), dtype=np.float64)
        return SparseTensor(idx, vals, (n,))
    # scalar shape: a 0-d tensor has exactly one slot
    nnz = draw(st.integers(0, 1))
    idx = np.arange(nnz, dtype=np.int64)
    vals = np.array(draw(st.lists(f32_exact, min_size=nnz, max_size=nnz)), dtype=np.float64)
    return SparseTensor(idx, vals, ())


@st.composite
def bitmap_payloads(draw):
    n = draw(st.integers(1, 64))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dense = np.zeros(n)
    nnz = int(mask.sum())
    dense[mask] = np.array(draw(st.lists(f32_exact, min_size=nnz, max_size=nnz)))
    return BitmapTensor.from_mask(dense, mask)


@st.composite
def quantized_payloads(draw):
    n = draw(st.integers(1, 64))
    nnz = draw(st.integers(0, n))
    idx = np.array(
        sorted(draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz, unique=True))),
        dtype=np.int64,
    )
    signs = np.array(
        draw(st.lists(st.sampled_from([-1, 1]), min_size=nnz, max_size=nnz)), dtype=np.int8
    )
    return QuantizedSparseTensor(idx, signs, draw(pos_f32), (n,))


@st.composite
def ternary_payloads(draw):
    n = draw(st.integers(1, 64))
    signs = np.array(
        draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)), dtype=np.int8
    )
    return TernaryTensor(signs, draw(pos_f32), (n,))


@st.composite
def qsgd_payloads(draw):
    n = draw(st.integers(1, 64))
    s = draw(st.integers(1, 8))
    levels = np.array(
        draw(st.lists(st.integers(-s, s), min_size=n, max_size=n)), dtype=np.int32
    )
    return QSGDTensor(levels, draw(pos_f32), s, (n,))


@st.composite
def dense_payloads(draw):
    n = draw(st.integers(1, 64))
    data = np.array(draw(st.lists(f32_exact, min_size=n, max_size=n)), dtype=np.float64)
    return DenseTensor(data) if draw(st.booleans()) else data


any_payload = st.one_of(
    sparse_payloads(),
    bitmap_payloads(),
    quantized_payloads(),
    ternary_payloads(),
    qsgd_payloads(),
    dense_payloads(),
)


def _dense(payload):
    arr = payload if isinstance(payload, np.ndarray) else payload.to_dense()
    return np.asarray(arr, dtype=np.float64)


@given(payload=any_payload, worker=st.integers(0, 500), loss=f32_exact)
@settings(max_examples=120, deadline=None)
def test_gradient_frame_roundtrip_any_payload(payload, worker, loss):
    frame = GradientFrame(GradientMessage(worker, {"w": payload}, 3), loss=float(loss))
    out = decode_frame(encode_frame(frame))
    assert isinstance(out, GradientFrame)
    assert out.worker_id == worker
    assert out.loss == float(loss)
    sent, received = _dense(payload), _dense(out.message.payload["w"])
    assert sent.shape == received.shape
    np.testing.assert_allclose(received, sent.astype(np.float32).astype(np.float64), rtol=1e-6)


@given(payload=any_payload, staleness=st.integers(0, 10_000), ts=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_diff_frame_roundtrip_any_payload(payload, staleness, ts):
    frame = DiffFrame(DiffMessage(1, {"w": payload}, server_timestamp=ts, staleness=staleness))
    out = decode_frame(encode_frame(frame))
    assert isinstance(out, DiffFrame)
    assert out.message.staleness == staleness
    assert out.message.server_timestamp == ts
    np.testing.assert_allclose(
        _dense(out.message.payload["w"]),
        _dense(payload).astype(np.float32).astype(np.float64),
        rtol=1e-6,
    )


@given(
    worker=st.integers(0, 2**31 - 1),
    samples=st.none() | st.integers(0, 2**62),
    state=st.none() | st.integers(0, 2**62),
    error=st.none() | st.text(min_size=1, max_size=200),
)
@settings(max_examples=120, deadline=None)
def test_close_frame_roundtrip(worker, samples, state, error):
    frame = CloseFrame(
        worker_id=worker, samples_processed=samples, worker_state_bytes=state, error=error
    )
    assert decode_frame(encode_frame(frame)) == frame


#: JSON-representable scalar values for span/metric record fields
_json_scalars = st.none() | st.booleans() | st.integers(-(2**53), 2**53) | st.text(max_size=20)

#: span-ish records: unicode names exercise the utf-8 body encoding
_span_records = st.fixed_dictionaries(
    {
        "type": st.just("span"),
        "name": st.text(min_size=1, max_size=40),
        "ts": st.floats(0, 1e6, allow_nan=False),
        "dur": st.floats(0, 1e3, allow_nan=False),
    },
    optional={
        "cat": st.text(max_size=10),
        "proc": st.text(max_size=10),
        "args": st.dictionaries(st.text(min_size=1, max_size=10), _json_scalars, max_size=3),
    },
)

@given(
    worker=st.integers(0, 2**31 - 1),
    spans=st.lists(_span_records, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_telemetry_frame_roundtrip(worker, spans):
    """Any JSON-able span batch round-trips exactly — including the empty
    batch (a traced worker that emitted nothing still ships a frame) and
    unicode span names (the body is utf-8, not ascii-escaped)."""
    frame = TelemetryFrame(worker_id=worker, spans=tuple(spans))
    raw = encode_frame(frame)
    # header (4) | worker i32 | body_len u32 | body: the spans and nothing else
    assert json.loads(bytes(raw[12:]).decode("utf-8")) == {"spans": spans}
    out = decode_frame(raw)
    assert isinstance(out, TelemetryFrame)
    assert out.worker_id == worker
    assert list(out.spans) == spans
    # Diagnostic side channel: telemetry never counts as payload traffic.
    assert frame.nbytes() == 0 and out.dense_nbytes() == 0


@given(spans=st.lists(_span_records, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_telemetry_frames_are_independent_per_worker(spans):
    """Multi-worker shipping: each worker's frame decodes to its own id and
    records; concatenated wire buffers do not bleed into each other."""
    frames = [TelemetryFrame(worker_id=w, spans=tuple(spans)) for w in range(3)]
    for w, frame in enumerate(frames):
        out = decode_frame(encode_frame(frame))
        assert out.worker_id == w
        assert list(out.spans) == spans
