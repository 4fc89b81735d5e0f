"""Binary wire codec: roundtrips, size accounting, format validation."""

import struct
from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import BitmapTensor, QuantizedSparseTensor, SparseTensor, encode_sparse
from repro.ps import DiffMessage, GradientMessage, ModelMessage
from repro.ps.codec import (
    MAGIC,
    _pack_signs,
    _unpack_signs,
    decode_message,
    join_segments,
    message_segments,
)


def encode_message(msg) -> bytearray:
    """A message's whole wire image: its segments joined into one buffer."""
    return join_segments(message_segments(msg))


# ----------------------------------------------------------------------
# The byte oracle: the encoder as it stood before the single-buffer codec
# (``astype().tobytes()`` per array, ``+`` per field, ``b"".join`` per
# message, ``+`` again per frame).  Slow and copy-happy on purpose — the
# codec must emit these bytes to the last bit (tests/properties/
# test_prop_wire_exact.py drives both with random messages).
def _reference_dims(shape):
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


def reference_encode_layer(name, layer) -> bytes:
    name_b = name.encode("utf-8")
    if isinstance(layer, SparseTensor):
        body = (
            _reference_dims(layer.shape)
            + struct.pack("<I", layer.nnz)
            + layer.indices.astype("<u4").tobytes()
            + layer.values.astype("<f4").tobytes()
        )
        tag = 1
    elif isinstance(layer, QuantizedSparseTensor):
        body = (
            _reference_dims(layer.shape)
            + struct.pack("<If", layer.nnz, layer.scale)
            + layer.indices.astype("<u4").tobytes()
            + _pack_signs(layer.signs).tobytes()
        )
        tag = 2
    elif isinstance(layer, BitmapTensor):
        body = (
            _reference_dims(layer.shape)
            + struct.pack("<I", layer.nnz)
            + layer.packed_bitmap().tobytes()
            + layer.values.astype("<f4").tobytes()
        )
        tag = 3
    elif isinstance(layer, np.ndarray):
        body = _reference_dims(layer.shape) + layer.astype("<f4").tobytes()
        tag = 0
    else:  # DenseTensor, TernaryTensor
        dense = layer.to_dense()
        body = _reference_dims(dense.shape) + dense.astype("<f4").tobytes()
        tag = 0
    return struct.pack("<HB", len(name_b), tag) + name_b + body


def reference_encode(msg) -> bytes:
    kind = {GradientMessage: 0, DiffMessage: 1, ModelMessage: 2}[type(msg)]
    meta = msg.local_iteration if isinstance(msg, GradientMessage) else msg.server_timestamp
    parts = [struct.pack("<HBBIq H", MAGIC, 1, kind, msg.worker_id, meta, len(msg.payload))]
    for name, layer in msg.payload.items():
        parts.append(reference_encode_layer(name, layer))
    return b"".join(parts)


def reference_encode_frame(frame) -> bytes:
    """Gradient / diff / model frames as ``encode_frame`` concatenated them."""
    from repro.comm.frames import FRAME_MAGIC, DiffFrame, GradientFrame

    if isinstance(frame, GradientFrame):
        return (
            struct.pack("<BBh", FRAME_MAGIC, 0, frame.shard)
            + struct.pack("<d", frame.loss)
            + reference_encode(frame.message)
        )
    kind = 1 if isinstance(frame, DiffFrame) else 2
    return (
        struct.pack("<BBh", FRAME_MAGIC, kind, frame.shard)
        + struct.pack("<i", frame.message.staleness)
        + reference_encode(frame.message)
    )


def sparse_payload(rng):
    arr = rng.normal(size=(8, 9))
    arr[np.abs(arr) < 0.9] = 0.0
    return OrderedDict([("layer.w", encode_sparse(arr)), ("layer.b", encode_sparse(rng.normal(size=5)))])


class TestSignPacking:
    def test_roundtrip(self, rng):
        signs = rng.integers(-1, 2, size=101).astype(np.int8)
        assert np.array_equal(_unpack_signs(_pack_signs(signs), 101), signs)

    def test_packed_density(self):
        signs = np.ones(1000, dtype=np.int8)
        assert len(_pack_signs(signs)) == 250  # 2 bits each

    def test_empty(self):
        assert len(_unpack_signs(_pack_signs(np.zeros(0, dtype=np.int8)), 0)) == 0


class TestGradientRoundtrip:
    def test_sparse_payload(self, rng):
        msg = GradientMessage(3, sparse_payload(rng), 17)
        out = decode_message(encode_message(msg))
        assert isinstance(out, GradientMessage)
        assert out.worker_id == 3 and out.local_iteration == 17
        for name in msg.payload:
            a, b = msg.payload[name], out.payload[name]
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-6)  # f32 wire
            assert a.shape == b.shape

    def test_dense_payload(self, rng):
        payload = OrderedDict([("w", rng.normal(size=(4, 5)))])
        out = decode_message(encode_message(GradientMessage(0, payload, 0)))
        np.testing.assert_allclose(out.payload["w"], payload["w"], rtol=1e-6)

    def test_quantized_payload(self, rng):
        idx = np.array([1, 5, 9], dtype=np.int64)
        signs = np.array([1, -1, 1], dtype=np.int8)
        payload = OrderedDict([("w", QuantizedSparseTensor(idx, signs, 0.25, (12,)))])
        out = decode_message(encode_message(GradientMessage(0, payload, 0)))
        q = out.payload["w"]
        np.testing.assert_array_equal(q.indices, idx)
        np.testing.assert_array_equal(q.signs, signs)
        assert q.scale == pytest.approx(0.25)

    def test_mixed_payload(self, rng):
        payload = OrderedDict([
            ("a", rng.normal(size=6)),
            ("b", encode_sparse(np.array([0.0, 1.5, 0.0]))),
        ])
        out = decode_message(encode_message(GradientMessage(1, payload, 2)))
        assert isinstance(out.payload["a"], np.ndarray)
        assert isinstance(out.payload["b"], SparseTensor)


class TestOtherMessageKinds:
    def test_diff_roundtrip(self, rng):
        msg = DiffMessage(2, sparse_payload(rng), server_timestamp=99, staleness=4)
        out = decode_message(encode_message(msg))
        assert isinstance(out, DiffMessage)
        assert out.server_timestamp == 99

    def test_model_roundtrip(self, rng):
        payload = OrderedDict([("w", rng.normal(size=(3, 3)))])
        msg = ModelMessage(1, payload, 7, 0)
        out = decode_message(encode_message(msg))
        assert isinstance(out, ModelMessage)
        np.testing.assert_allclose(out.payload["w"], payload["w"], rtol=1e-6)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_message(object())


class TestWireSize:
    def test_matches_analytic_accounting(self, rng):
        """Measured bytes ≈ the analytic model: identical per-element costs,
        header differs only by the (small) name table."""
        payload = sparse_payload(rng)
        msg = GradientMessage(0, payload, 0)
        raw = encode_message(msg)
        analytic = msg.nbytes()
        names = sum(len(n.encode()) for n in payload)
        # elements cost exactly 8 bytes each in both models
        per_elem = sum(8 * t.nnz for t in payload.values())
        assert len(raw) >= per_elem
        assert abs(len(raw) - analytic) <= names + 64

    def test_sparse_wire_smaller_than_dense(self, rng):
        arr = rng.normal(size=1000)
        arr[np.abs(arr) < 2.0] = 0.0  # very sparse
        sparse = encode_message(GradientMessage(0, OrderedDict([("w", encode_sparse(arr))]), 0))
        dense = encode_message(GradientMessage(0, OrderedDict([("w", arr)]), 0))
        assert len(sparse) < len(dense) / 4


class TestBitmapWireFormat:
    """Tag 3 is pinned: these bytes were written by the codec as it was when
    ``BitmapTensor`` still held the packed bitmap in memory."""

    #: 4×5 layer "w", nonzeros at flat 1, 7, 8, 15, 19
    LAYER_HEX = (
        "0100" "03" "77"  # name length, tag 3, "w"
        "02" "04000000" "05000000"  # ndim, dims
        "05000000"  # nnz
        "828108"  # bits 1,7 | 8,15 | 19, LSB first
        "0000c03f" "000000c0" "0000803e" "00004040" "000000be"  # float32 values
    )
    MESSAGE_HEX = "650d01010300000009000000000000000100" + LAYER_HEX

    @staticmethod
    def layer():
        from repro.compression import BitmapTensor

        arr = np.zeros((4, 5))
        arr.reshape(-1)[[1, 7, 8, 15, 19]] = [1.5, -2.0, 0.25, 3.0, -0.125]
        return BitmapTensor.from_mask(arr, arr != 0)

    def test_encode_emits_the_golden_bytes(self):
        assert reference_encode_layer("w", self.layer()).hex() == self.LAYER_HEX
        msg = DiffMessage(3, OrderedDict([("w", self.layer())]), 9, 2)
        assert encode_message(msg).hex() == self.MESSAGE_HEX

    def test_decode_returns_the_same_indices_and_values(self):
        from repro.compression import BitmapTensor

        out = decode_message(bytes.fromhex(self.MESSAGE_HEX))
        assert (out.worker_id, out.server_timestamp) == (3, 9)
        got = out.payload["w"]
        assert isinstance(got, BitmapTensor) and got.shape == (4, 5)
        np.testing.assert_array_equal(got.indices, [1, 7, 8, 15, 19])
        np.testing.assert_array_equal(got.values, [1.5, -2.0, 0.25, 3.0, -0.125])

    def test_body_bytes_are_what_nbytes_prices(self):
        """Wire bytes minus the layer's framing == nbytes() minus the
        analytic header: ceil(n/8) of bitmap + 4 per value."""
        from repro.compression.coding import HEADER_BYTES

        bt = self.layer()
        raw = encode_message(DiffMessage(3, OrderedDict([("w", bt)]), 9, 2))
        framing = 18 + 2 + 1 + len("w") + 1 + 4 * len(bt.shape) + 4  # message + layer headers
        assert len(raw) - framing == bt.nbytes() - HEADER_BYTES == 3 + 4 * 5


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_message(b"\x00" * 32)

    def test_truncated_raises(self, rng):
        raw = encode_message(GradientMessage(0, sparse_payload(rng), 0))
        with pytest.raises(Exception):
            decode_message(raw[: len(raw) // 2])


class TestDecodedViews:
    """The lifetime rule: a decoded dense layer is a read-only float32 view
    of the buffer that was decoded and keeps it alive; sparse layers own
    their arrays (the tracker's journal keeps references to the indices)."""

    @staticmethod
    def zoo(rng):
        arr = rng.normal(size=(6, 7))
        mask = np.abs(arr) > 0.8
        return OrderedDict(
            [
                ("dense", rng.normal(size=(4, 5))),
                ("coo", encode_sparse(np.where(mask, arr, 0.0))),
                ("quant", QuantizedSparseTensor(
                    np.array([1, 5, 9]), np.array([1, -1, 1], dtype=np.int8), 0.25, (12,)
                )),
                ("bitmap", BitmapTensor.from_mask(arr, mask)),
            ]
        )

    def test_dense_layer_is_a_readonly_float32_view_of_the_frame(self, rng):
        raw = encode_message(GradientMessage(0, self.zoo(rng), 0))
        assert isinstance(raw, bytearray)
        layer = decode_message(raw).payload["dense"]
        assert layer.dtype == np.float32 and layer.shape == (4, 5)
        assert not layer.flags.writeable and not layer.flags.owndata
        assert np.shares_memory(layer, np.frombuffer(raw, dtype=np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            layer += 1.0
        with pytest.raises(ValueError, match="read-only"):
            layer[0, 0] = 1.0

    def test_view_keeps_its_frame_alive(self, rng):
        payload = self.zoo(rng)
        layer = decode_message(encode_message(GradientMessage(0, payload, 0))).payload["dense"]
        # the only reference to the bytearray is now the view's base chain
        expected = payload["dense"].astype(np.float32)
        _ = [bytearray(1 << 16) for _ in range(8)]  # churn the allocator
        np.testing.assert_array_equal(layer, expected)

    def test_sparse_layers_own_their_arrays(self, rng):
        raw = encode_message(GradientMessage(0, self.zoo(rng), 0))
        frame_bytes = np.frombuffer(raw, dtype=np.uint8)
        out = decode_message(raw).payload
        for name in ("coo", "quant", "bitmap"):  # tags 1, 2, 3
            layer = out[name]
            assert not np.shares_memory(layer.indices, frame_bytes), name
            assert layer.indices.flags.writeable
            body = layer.signs if name == "quant" else layer.values
            assert not np.shares_memory(body, frame_bytes), name

    def test_journaled_indices_do_not_alias_the_frame(self, rng):
        """A DGS upload's indices are held by the tracker's journal across
        later exchanges: they must survive the frame they arrived in."""
        from repro.core.tracker import ModelDifferenceTracker

        tracker = ModelDifferenceTracker({"w": (40, 50)}, num_workers=1)
        arr = rng.normal(size=(40, 50))
        upload = OrderedDict([("w", encode_sparse(np.where(np.abs(arr) > 2.0, arr, 0.0)))])
        raw = encode_message(GradientMessage(0, upload, 0))
        tracker.apply_update(decode_message(raw).payload)
        (entry,) = tracker._journal
        indices, _ = entry["w"]  # (indices, M's values there before)
        assert not np.shares_memory(indices, np.frombuffer(raw, dtype=np.uint8))
        kept = indices.copy()
        raw[:] = bytes(len(raw))  # what a reused receive buffer would do
        np.testing.assert_array_equal(indices, kept)

    def test_bytes_and_bytearray_inputs_decode_alike(self, rng):
        """Callers hold ``bytearray`` (``encode_frame``) or ``bytes``; both
        transports hand over a ``memoryview``, and a memoryview slice is
        what ``decode_frame`` passes."""
        raw = encode_message(DiffMessage(1, self.zoo(rng), 4, 0))
        outs = [decode_message(form).payload for form in (raw, bytes(raw), memoryview(raw))]
        for out in outs:
            assert not out["dense"].flags.writeable
        for name in outs[0]:
            for other in outs[1:]:
                a, b = outs[0][name], other[name]
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
                else:
                    assert type(a) is type(b) and a.shape == b.shape
                    np.testing.assert_array_equal(a.indices, b.indices)
                    np.testing.assert_array_equal(a.to_dense(), b.to_dense())


class TestCopyCounts:
    """One copy per hop, as counts (clocks do not repeat, counts do): the
    benchmark's dense gradient frame is allocated once by ``encode_frame``
    and not at all by ``decode_frame``."""

    @staticmethod
    def dense_frame():
        from repro.comm.frames import GradientFrame
        from repro.core.layerops import parameters_of
        from repro.nn import MLP

        params = parameters_of(MLP(768, (1024, 128), 10, seed=0))
        return GradientFrame(GradientMessage(0, params, 0), loss=0.5)

    @staticmethod
    def peak_of(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    def test_encode_allocates_the_frame_and_nothing_else(self):
        from repro.comm.frames import encode_frame

        frame = self.dense_frame()
        peak, raw = self.peak_of(lambda: encode_frame(frame))
        assert len(raw) == 3_679_940
        assert peak <= 1.02 * len(raw)  # was 2.00× (astype + tobytes + three concatenations)

    def test_decode_allocates_no_payload(self):
        from repro.comm.frames import decode_frame, encode_frame

        raw = encode_frame(self.dense_frame())
        peak, out = self.peak_of(lambda: decode_frame(raw))
        assert sum(layer.nbytes for layer in out.message.payload.values()) == 3_679_784
        assert peak <= 64 * 1024  # was 2.00× the frame (float64 widening)
