"""Property tests for the binary wire codec: roundtrip over arbitrary payloads."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.compression import BitmapTensor, SparseTensor
from repro.ps import GradientMessage
from repro.ps.codec import decode_message, join_segments, message_segments

f32_exact = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@given(
    arr=arrays(np.float64, array_shapes(max_dims=3, max_side=10), elements=f32_exact),
    worker=st.integers(0, 1000),
    iteration=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_dense_roundtrip_exact_for_f32_values(arr, worker, iteration):
    """float32-representable values survive the wire bit-exactly."""
    msg = GradientMessage(worker, OrderedDict([("w", arr)]), iteration)
    out = decode_message(join_segments(message_segments(msg)))
    assert out.worker_id == worker and out.local_iteration == iteration
    np.testing.assert_array_equal(out.payload["w"], arr.astype(np.float32).astype(np.float64))


@given(
    data=st.data(),
    n=st.integers(1, 300),
)
@settings(max_examples=80, deadline=None)
def test_sparse_roundtrip(data, n):
    nnz = data.draw(st.integers(0, n))
    idx = np.sort(
        np.array(
            data.draw(
                st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz, unique=True)
            ),
            dtype=np.int64,
        )
    )
    vals = np.array(
        data.draw(st.lists(f32_exact, min_size=nnz, max_size=nnz)), dtype=np.float64
    )
    st_tensor = SparseTensor(idx, vals, (n,))
    msg = GradientMessage(0, OrderedDict([("w", st_tensor)]), 0)
    out = decode_message(join_segments(message_segments(msg))).payload["w"]
    np.testing.assert_array_equal(out.indices, idx)
    np.testing.assert_array_equal(out.values, vals.astype(np.float32).astype(np.float64))


@given(
    data=st.data(),
    n=st.integers(1, 200),
)
@settings(max_examples=60, deadline=None)
def test_bitmap_roundtrip(data, n):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    arr = np.zeros(n)
    arr[mask] = np.array(
        data.draw(st.lists(f32_exact, min_size=int(mask.sum()), max_size=int(mask.sum())))
    )
    bt = BitmapTensor.from_mask(arr, mask)
    msg = GradientMessage(0, OrderedDict([("w", bt)]), 0)
    out = decode_message(join_segments(message_segments(msg))).payload["w"]
    np.testing.assert_array_equal(
        out.to_dense(), arr.astype(np.float32).astype(np.float64)
    )
