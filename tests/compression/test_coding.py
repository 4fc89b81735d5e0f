"""COO wire coding and byte accounting."""

import numpy as np
import pytest

from repro.compression import (
    HEADER_BYTES,
    INDEX_BYTES,
    VALUE_BYTES,
    SparseTensor,
    dense_nbytes,
    encode_mask,
    encode_sparse,
    sparse_nbytes,
)


class TestEncode:
    def test_roundtrip_identity(self, rng):
        arr = rng.normal(size=(6, 7))
        arr[np.abs(arr) < 0.8] = 0.0
        st = encode_sparse(arr)
        # Wire values are float32 (VALUE_BYTES); roundtrip is exact at f32.
        np.testing.assert_array_equal(st.to_dense(), arr.astype(np.float32))

    def test_nnz(self):
        arr = np.array([0.0, 1.0, 0.0, -2.0])
        st = encode_sparse(arr)
        assert st.nnz == 2
        np.testing.assert_array_equal(st.indices, [1, 3])
        np.testing.assert_array_equal(st.values, [1.0, -2.0])

    def test_encode_mask_selects_positions(self, rng):
        arr = rng.normal(size=10)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 5]] = True
        st = encode_mask(arr, mask)
        assert st.nnz == 2
        np.testing.assert_array_equal(st.values, arr[[2, 5]].astype(np.float32))

    def test_encode_mask_keeps_explicit_zeros(self):
        """A masked-in zero still travels (value 0 at that index)."""
        arr = np.array([0.0, 1.0])
        mask = np.array([True, True])
        st = encode_mask(arr, mask)
        assert st.nnz == 2

    def test_mask_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            encode_mask(rng.normal(size=4), np.ones(5, dtype=bool))

    def test_values_are_copies(self, rng):
        arr = rng.normal(size=5)
        st = encode_sparse(arr)
        arr[:] = 0
        assert np.abs(st.values).sum() > 0


class TestSparseTensor:
    def test_add_into_accumulates(self):
        st = SparseTensor(np.array([0, 2]), np.array([1.0, -1.0]), (4,))
        dest = np.ones(4)
        st.add_into(dest)
        np.testing.assert_allclose(dest, [2.0, 1.0, 0.0, 1.0])

    def test_add_into_shape_mismatch(self):
        st = SparseTensor(np.array([0]), np.array([1.0]), (4,))
        with pytest.raises(ValueError):
            st.add_into(np.zeros(5))

    def test_density(self):
        st = SparseTensor(np.array([0]), np.array([1.0]), (10,))
        assert st.density == pytest.approx(0.1)

    def test_multidim_shape(self, rng):
        arr = rng.normal(size=(3, 4))
        st = encode_sparse(arr)
        assert st.to_dense().shape == (3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([0, 1]), np.array([1.0]), (4,))


class TestByteAccounting:
    def test_sparse_bytes(self):
        assert sparse_nbytes(10) == HEADER_BYTES + 10 * (VALUE_BYTES + INDEX_BYTES)

    def test_dense_bytes(self):
        assert dense_nbytes(100) == HEADER_BYTES + 400

    def test_dense_accepts_shape(self):
        assert dense_nbytes((10, 10)) == dense_nbytes(100)

    def test_sparse_beats_dense_below_half_density(self, rng):
        n = 1000
        assert sparse_nbytes(n // 2 - 10) < dense_nbytes(n)
        assert sparse_nbytes(n // 2 + 10) > dense_nbytes(n)

    def test_tensor_nbytes(self):
        st = SparseTensor(np.arange(5), np.ones(5), (100,))
        assert st.nbytes() == sparse_nbytes(5)


class TestToDenseDtype:
    """Every codec materialises at the dtype it is asked for, so applying
    a payload never widens a float32 destination (float64 by default)."""

    @staticmethod
    def _payloads():
        from repro.compression import (
            BitmapTensor,
            DenseTensor,
            QSGDQuantizer,
            QuantizedSparseTensor,
            TernGradQuantizer,
        )

        idx = np.array([1, 4], dtype=np.int64)
        values = np.array([0.5, -2.0], dtype=np.float32)
        arr = np.linspace(-1.0, 1.0, 6)
        return [
            SparseTensor(idx, values, (6,)),
            BitmapTensor(idx, values, (6,)),
            DenseTensor(arr.astype(np.float32)),
            QuantizedSparseTensor(idx, np.array([1, -1], dtype=np.int8), 0.25, (6,)),
            TernGradQuantizer(seed=0).quantize(arr),
            QSGDQuantizer(seed=0).quantize(arr),
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_requested_dtype_same_values(self, dtype):
        for payload in self._payloads():
            dense = payload.to_dense(dtype)
            assert dense.dtype == dtype, type(payload).__name__
            np.testing.assert_array_equal(dense, payload.to_dense().astype(dtype))

    def test_default_is_float64_except_dense_keeps_its_own(self):
        for payload in self._payloads():
            want = np.float32 if hasattr(payload, "data") else np.float64
            assert payload.to_dense().dtype == want, type(payload).__name__
