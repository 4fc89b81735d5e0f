"""Numeric edge cases the training loop can hit."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import cross_entropy


class TestCrossEntropyEdges:
    def test_single_sample(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_many_classes(self, rng):
        logits = Tensor(rng.normal(size=(4, 1000)), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 500, 999, 42]))
        loss.backward()
        # gradient rows sum to ~0 (softmax minus one-hot property)
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_extreme_negative_logits(self):
        logits = Tensor(np.array([[-1e300, 0.0]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        assert np.isfinite(float(loss.data))


class TestTensorEdges:
    def test_empty_like_reductions(self):
        t = Tensor(np.zeros((0, 4)), requires_grad=True)
        assert t.sum().item() == 0.0

    def test_scalar_tensor_ops(self):
        a = Tensor(2.0, requires_grad=True)
        out = a * a + a
        out.backward()
        assert a.grad == pytest.approx(5.0)

    def test_large_values_relu(self):
        a = Tensor(np.array([1e308, -1e308]), requires_grad=True)
        out = a.relu()
        np.testing.assert_array_equal(out.data, [1e308, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_bitwise_the_where_form(self, dtype):
        """``relu`` is bitwise ``np.where(x > 0, x, 0.0)`` on every special
        value: NaN of either sign and -inf give +0, -0.0 gives +0.0,
        denormals keep their sign's rule, and the dtype is kept."""
        fi = np.finfo(dtype)
        x = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
             fi.smallest_subnormal, -fi.smallest_subnormal, fi.tiny, -fi.tiny, fi.max, -fi.max],
            dtype=dtype,
        )
        assert np.signbit(x[:2]).tolist() == [False, True]  # NaN of both signs
        want = np.where(x > 0, x, 0.0)
        out = Tensor(x).relu().data
        assert out.dtype == want.dtype == dtype
        assert out.tobytes() == want.tobytes()

    def test_division_by_small(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a / 1e-300
        assert np.isfinite(out.data).all()

    def test_log_of_tiny(self):
        a = Tensor(np.array([1e-300]), requires_grad=True)
        out = a.log()
        out.backward(np.ones(1))
        assert np.isfinite(out.data).all()
        assert np.isfinite(a.grad).all()
