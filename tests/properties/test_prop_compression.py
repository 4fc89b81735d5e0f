"""Property-based tests for sparsifiers and wire coding."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.compression import (
    TopKSparsifier,
    encode_mask,
    encode_sparse,
    sparsify,
    topk_mask,
    topk_select,
    topk_threshold,
    unsparsify,
)
from repro.compression import topk as topk_module

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)
vectors = arrays(np.float64, st.integers(1, 400), elements=finite_floats)
ratios = st.floats(min_value=0.001, max_value=1.0)


class TestTopKProperties:
    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=120, deadline=None)
    def test_exact_count(self, arr, ratio):
        mask = topk_mask(arr, ratio)
        expected = max(1, min(arr.size, int(np.ceil(arr.size * ratio))))
        assert mask.sum() == expected

    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=120, deadline=None)
    def test_kept_dominate_dropped(self, arr, ratio):
        mask = topk_mask(arr, ratio)
        if mask.all():
            return
        assert np.abs(arr[mask]).min() >= np.abs(arr[~mask]).max()

    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=80, deadline=None)
    def test_threshold_consistent_with_mask(self, arr, ratio):
        thr = topk_threshold(arr, ratio)
        strictly_above = (np.abs(arr) > thr).sum()
        mask_count = topk_mask(arr, ratio).sum()
        # Ties at the threshold may inflate the mask, never the reverse.
        assert strictly_above <= mask_count

    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=80, deadline=None)
    def test_split_partition(self, arr, ratio):
        sp = TopKSparsifier(ratio, min_sparse_size=0)
        mask, sent, kept = sp.split(arr)
        np.testing.assert_allclose(sent + kept, arr)
        assert not np.logical_and(sent != 0, kept != 0).any()


STRIDE = topk_module._SAMPLE_STRIDE


@contextmanager
def _scan_spy():
    """Record every streamed compare pass the top-k kernels make: the
    bound each pass used (``call_args_list``) and what it returned
    (``spy_returns``)."""
    real = topk_module.indices_above
    returns = []

    def scan(flat, lo):
        out = real(flat, lo)
        returns.append(out)
        return out

    with mock.patch.object(topk_module, "indices_above", side_effect=scan) as spy:
        spy.spy_returns = returns
        yield spy


def _k(n, ratio):
    return max(1, min(n, int(np.ceil(n * ratio))))


@st.composite
def server_traffic(draw):
    """Layers shaped like what the kernels really see: the server's
    ``M − v_k`` (mostly exact zeros, density from none to all), heavy ties,
    non-finite entries, at sizes around the sample stride and the
    ``min_sparse_size`` default."""
    n = draw(
        st.sampled_from(
            [2, STRIDE - 1, STRIDE, STRIDE + 1, 2 * STRIDE + 1, 255, 256, 257, 1000, 4097, 20001]
        )
    )
    ratio = draw(st.sampled_from([0.01, 0.02, 0.1, 0.25, 0.6]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = _k(n, ratio)
    nnz = draw(
        st.sampled_from([0, max(0, k - 1), k, int(np.ceil(0.02 * n)), int(np.ceil(0.25 * n)), n])
    )
    if draw(st.booleans()):
        live = rng.integers(1, 4, size=nnz) * rng.choice([-1, 1], size=nnz)  # heavy ties
    else:
        live = rng.normal(size=nnz)
    x = np.zeros(n, dtype=dtype)
    x[rng.choice(n, size=nnz, replace=False)] = live
    specials = draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=k + 2))
    x[rng.choice(n, size=min(n, len(specials)), replace=False)] = specials[:n]
    return x, ratio


def _assert_selection_contract(x, ratio):
    n, k = x.size, _k(x.size, ratio)
    mag = np.abs(x)
    ranked = np.sort(mag)  # NaN last, i.e. largest
    sel = topk_select(x, ratio)
    idx = sel.indices.astype(np.intp)
    assert idx.size == k
    assert (np.diff(idx) > 0).all()
    np.testing.assert_array_equal(sel.values, x[idx].astype(np.float32))
    # assert_array_equal treats NaN == NaN
    np.testing.assert_array_equal(np.sort(mag[idx]), ranked[n - k :])
    np.testing.assert_array_equal(np.flatnonzero(topk_mask(x, ratio)), idx)
    if k == n:
        return
    np.testing.assert_array_equal(topk_threshold(x, ratio), ranked[n - k])
    # np.nonzero also counts NaN, like the kernel does
    nonzero = np.flatnonzero(mag)
    if nonzero.size < k:
        # short layers are padded with their lowest-index zeros
        pad = np.flatnonzero(mag == 0)[: k - nonzero.size]
        np.testing.assert_array_equal(idx, np.sort(np.concatenate([nonzero, pad])))
    if ranked[n - k] > ranked[n - k - 1]:
        # unique k-th magnitude: the set is determined, so it is the one
        # the historical full-array argpartition picked
        np.testing.assert_array_equal(idx, np.sort(np.argpartition(mag, n - k)[n - k :]))


def _nan_on_the_sample_grid():
    """Fewer than k nonzeros with a NaN where the strided sample looks: the
    sample's quantile is NaN, which must not make every zero a candidate."""
    x = np.zeros(260, dtype=np.float32)
    x[[57, 66, 178, 224]] = np.inf
    x[STRIDE] = np.nan
    return x, 0.02


class TestTopKSelectionContract:
    @given(traffic=server_traffic())
    @example(traffic=_nan_on_the_sample_grid())
    @settings(max_examples=300, deadline=None)
    def test_contract_on_server_traffic(self, traffic):
        x, ratio = traffic
        _assert_selection_contract(x, ratio)

    @given(traffic=server_traffic())
    @settings(max_examples=100, deadline=None)
    def test_sparsifier_mask_and_select_agree(self, traffic):
        x, ratio = traffic
        sp = TopKSparsifier(ratio)  # default min_sparse_size: tiny layers go dense
        np.testing.assert_array_equal(np.flatnonzero(sp.mask(x)), sp.select(x).indices)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stride_aligned_adversary_stays_exact(self, dtype, rng):
        """Live columns are exactly the ones the strided sample skips, so
        the sample reads all-zero: still exact, in one compare pass."""
        x = rng.normal(size=(768, 1024)).astype(dtype)
        x[:, ::STRIDE] = 0.0
        assert not x.reshape(-1)[::STRIDE].any()
        with _scan_spy() as above:
            _assert_selection_contract(x.reshape(-1), 0.01)
        # topk_select, topk_mask, topk_threshold: one compare pass each, at lo = 0
        assert [call.args[1] for call in above.call_args_list] == [0, 0, 0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overshooting_sample_keeps_candidates_o_of_k(self, dtype, rng):
        """Every sampled entry outranks the k-th magnitude, so the sample's
        quantile over-shoots: the bound is lowered step by step, and no
        pass falls back to taking every nonzero as a candidate."""
        n = 65536
        x = rng.uniform(0.5, 1.0, size=n).astype(dtype)  # every entry nonzero
        x[::STRIDE] = rng.uniform(10.0, 20.0, size=n // STRIDE)  # 1 024 large
        ratio = 0.01  # k = 656 < 1 024: the k-th magnitude is a sampled one
        with _scan_spy() as above:
            _assert_selection_contract(x, ratio)
        found = [call.args[1] for call in above.call_args_list]
        counts = [ret.size for ret in above.spy_returns]
        assert len(found) > 3 and all(lo > 0 for lo in found), found
        assert max(counts) < n // 2, counts


class TestCodingProperties:
    @given(arr=arrays(np.float64, array_shapes(max_dims=3, max_side=12), elements=finite_floats))
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_roundtrip(self, arr):
        # Wire values are float32 (VALUE_BYTES); roundtrip is exact at f32.
        np.testing.assert_array_equal(encode_sparse(arr).to_dense(), arr.astype(np.float32))

    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=80, deadline=None)
    def test_encode_mask_roundtrip_equals_sparsify(self, arr, ratio):
        mask = topk_mask(arr, ratio)
        np.testing.assert_array_equal(
            encode_mask(arr, mask).to_dense(), sparsify(arr, mask).astype(np.float32)
        )

    @given(arr=vectors)
    @settings(max_examples=80, deadline=None)
    def test_nbytes_monotone_in_nnz(self, arr):
        st_full = encode_sparse(arr)
        half = arr.copy()
        half[: len(half) // 2] = 0.0
        st_half = encode_sparse(half)
        assert st_half.nbytes() <= st_full.nbytes()

    @given(arr=vectors, ratio=ratios)
    @settings(max_examples=80, deadline=None)
    def test_sparsify_unsparsify_partition(self, arr, ratio):
        mask = topk_mask(arr, ratio)
        np.testing.assert_allclose(sparsify(arr, mask) + unsparsify(arr, mask), arr)
