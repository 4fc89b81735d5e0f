"""Binary wire codec: roundtrips, size accounting, format validation."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import QuantizedSparseTensor, SparseTensor, encode_sparse
from repro.ps import DiffMessage, GradientMessage, ModelMessage
from repro.ps.codec import MAGIC, decode_message, encode_message, _pack_signs, _unpack_signs


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
        from repro.ps.codec import _encode_layer

        assert _encode_layer("w", self.layer()).hex() == self.LAYER_HEX
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
        from repro.ps.codec import _encode_layer

        bt = self.layer()
        framing = 2 + 1 + len("w") + 1 + 4 * len(bt.shape) + 4
        assert len(_encode_layer("w", bt)) - framing == bt.nbytes() - HEADER_BYTES == 3 + 4 * 5


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_message(b"\x00" * 32)

    def test_truncated_raises(self, rng):
        raw = encode_message(GradientMessage(0, sparse_payload(rng), 0))
        with pytest.raises(Exception):
            decode_message(raw[: len(raw) // 2])
