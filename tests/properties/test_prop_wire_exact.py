"""The segmented codec and the float32 decode views change no bit.

Two written-down proofs of what the copy-only-to-cast wire path claims:

* **bytes** — for random messages over every payload type, array layout,
  name length and both dtype paths (an array already in its wire dtype
  travels as a view of itself, any other is cast-copied), the segments a
  channel gathers concatenate to ``encode_frame``, ``encode_frame`` emits
  exactly what the previous encoder did, and what a pipe or a TCP
  channel actually writes is that frame behind its length prefix.  The
  previous encoder (per-array ``astype().tobytes()``, ``+`` per field,
  ``b"".join`` per message) lives on as the oracle in
  ``tests/ps/test_codec.py``;
* **arithmetic** — a decoded dense layer used to be widened to float64
  before it was applied; now the float32 view is applied directly.  For
  float32 ``M``, ``g``: ``f32(f64(M) − f64(g)) == M ⊖ g`` because float64
  carries more than 2·24 + 2 bits (double rounding is innocuous), and
  assigning or adding a float32 into float64 state widens exactly either
  way — so every state representation ends up with the same bits.  The same
  holds, by the same argument, for the values of a sparse wire layer (COO
  and bitmap), which used to be widened too and now arrive as owned float32
  exactly as they do in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import struct
import sys
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.comm.frames import (
    DiffFrame,
    GradientFrame,
    ModelFrame,
    decode_frame,
    encode_frame,
    frame_segments,
)
from repro.comm.pipe import PipeChannel
from repro.comm.socket import SocketChannel
from repro.compression import BitmapTensor, QuantizedSparseTensor, SparseTensor
from repro.compression.coding import DenseTensor
from repro.compression.terngrad import TernaryTensor
from repro.core.arena import LayerArena
from repro.core.layerops import add_payload, copy_payload
from repro.core.reference import ReferenceTracker
from repro.core.tracker import ModelDifferenceTracker
from repro.nn.module import Parameter
from repro.ps.messages import DiffMessage, GradientMessage, ModelMessage

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ps"))
from test_codec import reference_encode_frame  # noqa: E402  (the byte oracle)

#: anything a float32 cast handles without an overflow warning, NaN and ±inf included
wire_floats = st.one_of(
    st.floats(min_value=-3e38, max_value=3e38), st.sampled_from([np.nan, np.inf, -np.inf])
)
f32_floats = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def dense_arrays(draw):
    """ndarray layers in every layout the encoder's strided copy must handle."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = wire_floats if dtype is np.float64 else st.floats(width=32)
    layout = draw(st.sampled_from(["c", "f", "slice", "0d", "empty"]))
    if layout == "0d":
        return np.array(draw(elements), dtype=dtype)
    if layout == "empty":
        return np.zeros(draw(st.sampled_from([(0,), (3, 0), (0, 2, 2)])), dtype=dtype)
    base = draw(arrays(dtype, array_shapes(min_dims=1, max_dims=3, max_side=7), elements=elements))
    if layout == "f":
        return np.asfortranarray(base)
    if layout == "slice":  # non-contiguous: every other element of the last axis, reversed
        return base[..., ::-2]
    return base


@st.composite
def sparse_parts(draw):
    """(shape, sorted flat indices, float64 values) of a sparse layer."""
    shape = draw(array_shapes(min_dims=1, max_dims=2, max_side=9))
    n = int(np.prod(shape))
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
    vals = np.array(
        draw(st.lists(wire_floats, min_size=idx.size, max_size=idx.size)), dtype=np.float64
    )
    return shape, idx, vals


@st.composite
def big_layers(draw):
    """Layers whose arrays reach the codec's segment size, so the wire-dtype
    ones travel as views: float32 / float64 values, COO and bitmap layers
    (int64 indices are always cast; bitmap bytes and packed signs are
    already wire-typed), built from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["array", "dense", "coo", "bitmap", "quant"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if kind in ("array", "dense"):
        arr = rng.standard_normal((8 * draw(st.integers(128, 192)),)).astype(dtype)
        if draw(st.booleans()):
            arr = arr.reshape(-1, 8)
        return arr if kind == "array" else DenseTensor(arr)
    n = draw(st.integers(33_000, 70_000))  # a bitmap of 4 KiB and more
    nnz = draw(st.integers(1024, 17_000))  # values / packed signs of 4 KiB and more
    idx = np.sort(rng.choice(n, size=nnz, replace=False)).astype(np.int64)
    if kind == "quant":
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=nnz)
        return QuantizedSparseTensor(idx, signs, float(rng.random()), (n,))
    vals = rng.standard_normal(nnz).astype(dtype)
    return (SparseTensor if kind == "coo" else BitmapTensor)(idx, vals, (n,))


@st.composite
def layers(draw):
    kind = draw(st.sampled_from(["array", "coo", "bitmap", "quant", "dense", "ternary", "big"]))
    if kind == "big":
        return draw(big_layers())
    if kind == "array":
        return draw(dense_arrays())
    if kind == "dense":
        return DenseTensor(draw(dense_arrays()))
    shape, idx, vals = draw(sparse_parts())
    if kind == "coo":
        return SparseTensor(idx, vals, shape)
    if kind == "bitmap":
        return BitmapTensor(idx, vals, shape)
    signs = np.array(
        draw(st.lists(st.sampled_from([-1, 1]), min_size=idx.size, max_size=idx.size)),
        dtype=np.int8,
    )
    scale = draw(st.floats(0.0, 1e3, width=32))
    if kind == "quant":
        return QuantizedSparseTensor(idx, signs, scale, shape)
    full = np.zeros(int(np.prod(shape)), dtype=np.int8)
    full[idx] = signs
    return TernaryTensor(full, scale, shape)


@st.composite
def payloads(draw):
    """1–4 layers; name lengths drawn so that, summed with the headers
    before them, array offsets land on all four alignments."""
    out = OrderedDict()
    for i in range(draw(st.integers(1, 4))):
        name = str(i) + "x" * draw(st.integers(0, 6)) + draw(st.sampled_from(["", "é"]))
        out[name] = draw(layers())
    return out


@st.composite
def frames(draw):
    payload = draw(payloads())
    worker = draw(st.integers(0, 2**31 - 1))
    stamp = draw(st.integers(0, 2**40))
    shard = draw(st.integers(-1, 7))
    kind = draw(st.sampled_from(["gradient", "diff", "model"]))
    if kind == "gradient":
        loss = draw(st.floats(allow_nan=False))
        return GradientFrame(GradientMessage(worker, payload, stamp), loss, shard=shard)
    staleness = draw(st.integers(0, 2**20))
    if kind == "diff":
        return DiffFrame(DiffMessage(worker, payload, stamp, staleness), shard=shard)
    return ModelFrame(ModelMessage(worker, payload, stamp, staleness), shard=shard)


@given(frame=frames())
@settings(max_examples=300, deadline=None)
def test_frame_bytes_are_the_previous_encoders(frame):
    raw = encode_frame(frame)
    assert bytes(raw) == reference_encode_frame(frame)
    # the segments a channel gathers are those bytes, in order
    segments = frame_segments(frame)
    assert b"".join(bytes(memoryview(seg).cast("B")) for seg in segments) == bytes(raw)
    # and they decode: same layer names, dense layers as float32 views
    back = decode_frame(raw)
    assert list(back.message.payload) == list(frame.message.payload)
    assert back.shard == frame.shard


def test_wire_dtype_arrays_are_views_and_cast_arrays_are_copied():
    """The two dtype paths the property above draws: a C-contiguous float32
    array of 4 KiB or more is a segment over its own memory, a float64
    one (and a COO layer's int64 indices) is cast-copied into a run."""
    rng = np.random.default_rng(7)
    f32 = rng.standard_normal((64, 32)).astype(np.float32)
    f64 = rng.standard_normal((64, 32))
    coo = SparseTensor(np.arange(0, 4096, 2), rng.standard_normal(2048).astype(np.float32), (4096,))
    frame = ModelFrame(ModelMessage(0, {"a": f32, "b": f64, "c": coo}, 3, 1))
    arrays = [np.asarray(memoryview(seg)) for seg in frame_segments(frame)]
    assert sum(np.shares_memory(a, f32) for a in arrays) == 1
    assert sum(np.shares_memory(a, coo.values) for a in arrays) == 1
    assert not any(np.shares_memory(a, f64) or np.shares_memory(a, coo.indices) for a in arrays)
    assert b"".join(a.tobytes() for a in arrays) == reference_encode_frame(frame)


def _channel_and_peer(transport: str):
    """A channel and the bare socket at its far end (TCP, or the other end
    of a ``multiprocessing.Pipe()``)."""
    if transport == "tcp":
        with socket.create_server(("127.0.0.1", 0)) as server:
            peer = socket.create_connection(server.getsockname())
            return SocketChannel(server.accept()[0]), peer
    ours, theirs = mp.Pipe()
    peer = socket.socket(fileno=os.dup(theirs.fileno()))
    theirs.close()
    return PipeChannel(ours), peer


@pytest.fixture(scope="module")
def transports():
    pairs = {name: _channel_and_peer(name) for name in ("pipe", "tcp")}
    yield pairs
    for channel, peer in pairs.values():
        channel.close()
        peer.close()


def _read_record(peer, out: list) -> None:
    """One length-prefixed record off ``peer``, prefix included."""
    buf = bytearray()
    while len(buf) < 4 or len(buf) < 4 + struct.unpack_from("<I", buf)[0]:
        want = 4 - len(buf) if len(buf) < 4 else 4 + struct.unpack_from("<I", buf)[0] - len(buf)
        chunk = peer.recv(want)
        if not chunk:
            break
        buf.extend(chunk)
    out.append(bytes(buf))


@given(frame=frames())
@settings(max_examples=60, deadline=None)
def test_what_each_transport_writes_is_the_frame(transports, frame):
    raw = bytes(encode_frame(frame))
    for channel, peer in transports.values():
        got: list = []
        reader = threading.Thread(target=_read_record, args=(peer, got))
        reader.start()
        channel.send(frame)
        reader.join(timeout=30)
        assert got == [struct.pack("<I", len(raw)) + raw]


def test_name_lengths_reach_every_alignment():
    """The strategy above is only as good as its offsets: one dense layer
    behind names of length 1..4 starts at four different offsets mod 4."""
    offsets = set()
    for extra in range(4):
        name = "0" + "x" * extra
        frame = GradientFrame(GradientMessage(0, {name: np.ones(3)}, 0), 0.0)
        raw = encode_frame(frame)
        layer = decode_frame(raw).message.payload[name]
        offsets.add(layer.__array_interface__["data"][0] % 4)
        assert bytes(raw) == reference_encode_frame(frame)
    assert offsets == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# arithmetic


def _wire_view(g32: np.ndarray, pad: int) -> np.ndarray:
    """``g32`` as the server sees it: a read-only float32 view at an
    arbitrary byte offset of a received frame."""
    name = "w" + "x" * pad
    raw = encode_frame(GradientFrame(GradientMessage(0, {name: g32}, 0), 0.0))
    return decode_frame(raw).message.payload[name]


f32_vectors = arrays(np.float32, st.integers(1, 64), elements=f32_floats)


@given(data=st.data(), pad=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_applying_the_float32_view_is_bitwise_the_widened_apply(data, pad):
    m32 = data.draw(f32_vectors)
    g32 = data.draw(arrays(np.float32, m32.shape, elements=f32_floats))
    view = _wire_view(g32, pad)
    assert view.dtype == np.float32 and not view.flags.writeable
    widened = g32.astype(np.float64)  # what the decoder used to hand over
    shapes = {"w": m32.shape}

    def arena_after(dtype, update):
        tracker = ModelDifferenceTracker(shapes, 1, track_differences=False, dtype=dtype)
        np.copyto(tracker.M["w"], m32)
        tracker.apply_update({"w": update})
        return tracker.M["w"]

    for dtype in (np.float32, np.float64):  # arena state, both widths
        got, want = arena_after(dtype, view), arena_after(dtype, widened)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def dict_after(update):  # the parity oracle's dict-of-float64 state
        tracker = ReferenceTracker(shapes, 1, track_differences=False)
        np.copyto(tracker.M["w"], m32)
        tracker.apply_update({"w": update})
        return tracker.M["w"]

    assert dict_after(view).tobytes() == dict_after(widened).tobytes()

    # the bare statement of the claim, without the tracker around it
    direct = m32.copy()
    direct -= view
    assert direct.tobytes() == (m32.astype(np.float64) - widened).astype(np.float32).tobytes()


@given(data=st.data(), pad=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_worker_side_copy_and_add_are_bitwise_the_widened_ones(data, pad):
    theta = data.draw(arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e6, 1e6)))
    g32 = data.draw(arrays(np.float32, theta.shape, elements=f32_floats))
    view, widened = _wire_view(g32, pad), g32.astype(np.float64)
    for op in (copy_payload, add_payload):
        got, want = Parameter(theta.copy()), Parameter(theta.copy())
        op({"w": got}, {"w": view})
        op({"w": want}, {"w": widened})
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()
    arena = LayerArena({"w": theta.shape}, dtype=np.float64)
    twin = LayerArena({"w": theta.shape}, dtype=np.float64)
    for a, update in ((arena, view), (twin, widened)):
        np.copyto(a["w"], theta)
        a.add_payload({"w": update})
    assert arena.flat.tobytes() == twin.flat.tobytes()


def _sparse_wire_layer(cls, idx: np.ndarray, v32: np.ndarray, shape, pad: int):
    """A COO/bitmap layer as either side sees it after the wire."""
    name = "w" + "x" * pad
    raw = encode_frame(GradientFrame(GradientMessage(0, {name: cls(idx, v32, shape)}, 0), 0.0))
    return decode_frame(raw).message.payload[name]


@given(data=st.data(), pad=st.integers(0, 3), cls=st.sampled_from([SparseTensor, BitmapTensor]))
@settings(max_examples=150, deadline=None)
def test_sparse_wire_values_are_owned_float32_and_apply_bitwise_as_widened(data, pad, cls):
    m32 = data.draw(f32_vectors)
    n = m32.size
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
    v32 = data.draw(arrays(np.float32, idx.size, elements=f32_floats))
    layer = _sparse_wire_layer(cls, idx, v32, m32.shape, pad)
    assert type(layer) is cls
    assert layer.values.dtype == np.float32  # what the same payload carries in-process
    assert layer.values.flags.owndata and layer.values.flags.writeable
    assert layer.values.tobytes() == v32.tobytes()
    np.testing.assert_array_equal(layer.indices, idx)
    widened = cls(idx, v32.astype(np.float64), m32.shape)  # what the decoder used to hand over
    shapes = {"w": m32.shape}

    def server_after(update, cls=ModelDifferenceTracker, **state):
        tracker = cls(shapes, 1, track_differences=False, **state)
        np.copyto(tracker.M["w"], m32)
        tracker.apply_update({"w": update})
        return tracker.M["w"]

    for state in (
        dict(dtype=np.float32),
        dict(dtype=np.float64),
        dict(cls=ReferenceTracker),  # the parity oracle's dict-of-float64
    ):
        assert server_after(layer, **state).tobytes() == server_after(widened, **state).tobytes()

    for dtype in (np.float32, np.float64):  # a worker replica of either width
        got, want = Parameter(m32.astype(dtype)), Parameter(m32.astype(dtype))
        add_payload({"w": got}, {"w": layer})
        add_payload({"w": want}, {"w": widened})
        assert got.data.dtype == dtype and got.data.tobytes() == want.data.tobytes()

    direct = m32.copy()
    layer.add_into(direct)
    expect = m32.astype(np.float64)
    expect[idx] += v32
    assert direct.tobytes() == expect.astype(np.float32).tobytes()


def test_damping_a_wire_layer_is_damping_the_arena_payload_it_was():
    """The one consumer that builds a *new* array from a decoded layer:
    staleness damping multiplies in the layer's dtype, so a wire layer is
    now damped exactly like the float32 arena payload it was before it
    crossed the wire (simulator ≡ socket) — not like its float64 widening,
    which is what the widening decoder made of it."""
    from repro.core.layerops import scale_payload

    g32 = np.random.default_rng(3).normal(size=257).astype(np.float32)
    damped = scale_payload({"w": _wire_view(g32, 1)}, 1.0 / 3.0)["w"]
    assert damped.dtype == np.float32 and damped.flags.writeable
    assert damped.tobytes() == scale_payload({"w": g32}, 1.0 / 3.0)["w"].tobytes()

    # ... and so is a sparse wire layer, in both sparse wire formats: its
    # values come off the wire as the float32 they were, so the damped
    # payload is the one the simulator builds without a wire.
    idx = np.arange(0, 257, 3)
    for cls in (SparseTensor, BitmapTensor):
        in_process = cls(idx, g32[idx], (257,))
        wire = _sparse_wire_layer(cls, idx, g32[idx], (257,), 1)
        damped = scale_payload({"w": wire}, 1.0 / 3.0)["w"]
        assert type(damped) is cls and damped.values.dtype == np.float32
        want = scale_payload({"w": in_process}, 1.0 / 3.0)["w"]
        assert damped.values.tobytes() == want.values.tobytes()
        widened = (g32[idx].astype(np.float64) * (1.0 / 3.0)).astype(np.float32)
        assert damped.values.tobytes() != widened.tobytes()  # the visible difference
