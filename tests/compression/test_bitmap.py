"""Bitmap / dense payload codecs and the encode_best selector."""

import numpy as np
import pytest

from repro.compression import (
    BitmapTensor,
    DenseTensor,
    SparseTensor,
    bitmap_nbytes,
    dense_nbytes,
    encode_best,
    sparse_nbytes,
)


def with_density(rng, n, density):
    arr = np.zeros(n)
    k = int(n * density)
    idx = rng.choice(n, size=k, replace=False)
    arr[idx] = rng.normal(size=k)
    return arr


class TestBitmapTensor:
    def test_roundtrip(self, rng):
        arr = with_density(rng, 200, 0.2).reshape(10, 20)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        # Wire values are float32; roundtrip is exact at f32 precision.
        np.testing.assert_array_equal(bt.to_dense(), arr.astype(np.float32))

    def test_add_into(self, rng):
        arr = with_density(rng, 64, 0.25)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        dest = np.ones(64)
        bt.add_into(dest)
        np.testing.assert_allclose(dest, 1.0 + arr.astype(np.float32).astype(np.float64))

    def test_add_into_shape_mismatch(self, rng):
        arr = with_density(rng, 16, 0.5)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        with pytest.raises(ValueError):
            bt.add_into(np.zeros(17))

    def test_nbytes(self, rng):
        arr = with_density(rng, 800, 0.1)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        assert bt.nbytes() == bitmap_nbytes(800, bt.nnz)

    def test_invalid_bitmap_length(self):
        with pytest.raises(ValueError):
            BitmapTensor.from_packed(np.zeros(3, dtype=np.uint8), np.zeros(1), (100,))

    def test_is_coo_in_memory(self, rng):
        """Sorted flat indices + float32 values; the bitmap is only priced."""
        arr = with_density(rng, 203, 0.3)  # 203 is not a multiple of 8
        bt = BitmapTensor.from_mask(arr, arr != 0)
        np.testing.assert_array_equal(bt.indices, np.flatnonzero(arr))
        assert bt.values.dtype == np.float32
        np.testing.assert_array_equal(bt.values, arr[arr != 0].astype(np.float32))
        assert bt.nbytes() == bitmap_nbytes(203, bt.nnz)

    def test_packed_roundtrip_non_multiple_of_8(self, rng):
        arr = with_density(rng, 203, 0.3).reshape(7, 29)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        packed = bt.packed_bitmap()
        assert packed.dtype == np.uint8 and packed.size == (203 + 7) // 8
        # the reference decoding the wire format has always had
        bits = np.unpackbits(packed, bitorder="little")
        assert not bits[203:].any()
        np.testing.assert_array_equal(np.flatnonzero(bits[:203]), bt.indices)
        back = BitmapTensor.from_packed(packed, bt.values, bt.shape)
        np.testing.assert_array_equal(back.indices, bt.indices)
        np.testing.assert_array_equal(back.to_dense(), arr.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_into_scatters_in_the_destination_dtype(self, rng, dtype):
        arr = with_density(rng, 203, 0.3).reshape(7, 29)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        dest = rng.normal(size=(7, 29)).astype(dtype)
        want = dest.copy()
        want.reshape(-1)[np.flatnonzero(arr)] += arr[arr != 0].astype(np.float32)
        bt.add_into(dest)
        assert dest.dtype == dtype
        np.testing.assert_array_equal(dest, want)

    def test_scale_payload_keeps_the_format(self, rng):
        from repro.core.layerops import scale_payload

        arr = with_density(rng, 64, 0.25)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        (scaled,) = scale_payload({"w": bt}, 0.5).values()
        assert isinstance(scaled, BitmapTensor)
        np.testing.assert_array_equal(scaled.indices, bt.indices)
        np.testing.assert_array_equal(scaled.values, bt.values * 0.5)
        assert scaled.nbytes() == bt.nbytes()


class TestDenseTensor:
    def test_interface(self, rng):
        arr = rng.normal(size=(4, 4))
        dt = DenseTensor(arr)
        np.testing.assert_array_equal(dt.to_dense(), arr)
        assert dt.nbytes() == dense_nbytes(16)
        dest = np.zeros((4, 4))
        dt.add_into(dest)
        np.testing.assert_array_equal(dest, arr)


class TestCheapestFormat:
    """The one byte rule every producer of a model difference asks."""

    @pytest.mark.parametrize("n", [1, 5, 64, 203, 10_000])
    def test_is_the_argmin_with_ties_to_coo_then_bitmap(self, n):
        from repro.compression.coding import cheapest_format

        for nnz in range(0, n + 1, max(1, n // 97)):
            costs = [
                (sparse_nbytes(nnz), SparseTensor),
                (bitmap_nbytes(n, nnz), BitmapTensor),
                (dense_nbytes(n), DenseTensor),
            ]
            assert cheapest_format(n, nnz) is min(costs, key=lambda c: c[0])[1]

    @pytest.mark.parametrize("density", [0.0, 0.001, 0.02, 0.04, 0.1, 0.4, 0.9, 1.0])
    def test_encode_best_obeys_it(self, rng, density):
        from repro.compression.coding import cheapest_format

        arr = with_density(rng, 5000, density)
        assert type(encode_best(arr)) is cheapest_format(5000, int(np.count_nonzero(arr)))


class TestEncodeBest:
    def test_very_sparse_uses_coo(self, rng):
        arr = with_density(rng, 10_000, 0.005)
        assert isinstance(encode_best(arr), SparseTensor)

    def test_medium_density_uses_bitmap(self, rng):
        arr = with_density(rng, 10_000, 0.2)
        assert isinstance(encode_best(arr), BitmapTensor)

    def test_dense_falls_back(self, rng):
        arr = rng.normal(size=10_000)  # fully dense
        assert isinstance(encode_best(arr), DenseTensor)

    @pytest.mark.parametrize("density", [0.001, 0.02, 0.1, 0.4, 0.9])
    def test_roundtrip_any_density(self, rng, density):
        arr = with_density(rng, 5000, density).reshape(50, 100)
        enc = encode_best(arr)
        np.testing.assert_array_equal(enc.to_dense(), arr.astype(np.float32))

    @pytest.mark.parametrize("density", [0.001, 0.02, 0.1, 0.4, 0.9])
    def test_always_at_most_each_format(self, rng, density):
        arr = with_density(rng, 5000, density)
        enc = encode_best(arr)
        nnz = int(np.count_nonzero(arr))
        assert enc.nbytes() <= sparse_nbytes(nnz)
        assert enc.nbytes() <= bitmap_nbytes(5000, nnz)
        assert enc.nbytes() <= dense_nbytes(5000)

    def test_break_even_coo_vs_bitmap(self):
        """COO beats bitmap below n/8 / 4 ≈ 3.1% density, loses above."""
        n = 10_000
        low = int(n * 0.02)
        high = int(n * 0.05)
        assert sparse_nbytes(low) < bitmap_nbytes(n, low)
        assert sparse_nbytes(high) > bitmap_nbytes(n, high)


class TestCodecIntegration:
    def test_bitmap_through_wire(self, rng):
        from collections import OrderedDict

        from repro.ps import DiffMessage
        from repro.ps.codec import decode_message, join_segments, message_segments

        arr = with_density(rng, 256, 0.3)
        bt = BitmapTensor.from_mask(arr, arr != 0)
        msg = DiffMessage(0, OrderedDict([("w", bt)]), 5, 0)
        out = decode_message(join_segments(message_segments(msg)))
        got = out.payload["w"]
        assert isinstance(got, BitmapTensor)
        np.testing.assert_allclose(got.to_dense(), arr, rtol=1e-6)

    def test_tracker_downstream_uses_cheapest(self, rng):
        """After many sparse updates from another worker, a stale worker's G
        is dense enough that encode_best picks bitmap (or dense)."""
        from collections import OrderedDict

        from repro.compression import encode_sparse
        from repro.core.tracker import ModelDifferenceTracker

        tr = ModelDifferenceTracker(OrderedDict([("w", (1000,))]), 2)
        for i in range(40):
            upd = np.zeros(1000)
            upd[rng.choice(1000, size=30, replace=False)] = 1.0
            tr.apply_update(OrderedDict([("w", encode_sparse(upd))]))
        G = tr.model_difference(0)
        assert not isinstance(G["w"], SparseTensor)  # densified → bitmap/dense
        # and it still reconstructs exactly
        theta = np.zeros(1000)
        G["w"].add_into(theta)
        np.testing.assert_allclose(theta, tr.M["w"])
