"""Property tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.autograd import Tensor
from repro.autograd.tensor import _unbroadcast

small_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)


class TestUnbroadcast:
    @given(
        shape=array_shapes(min_dims=1, max_dims=3, max_side=5),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shape, data):
        """For x of `shape`, grad of broadcast(x) sums back to x's shape, and
        matches the analytic rule: d/dx Σ broadcast(x) = (#copies) per cell."""
        arr = data.draw(arrays(np.float64, shape, elements=small_floats))
        target = (4,) + shape
        g = np.ones(target)
        back = _unbroadcast(g, shape)
        assert back.shape == shape
        np.testing.assert_allclose(back, 4.0)

    @given(shape=array_shapes(min_dims=1, max_dims=3, max_side=4))
    @settings(max_examples=50, deadline=None)
    def test_identity_when_same_shape(self, shape):
        g = np.ones(shape)
        assert _unbroadcast(g, shape) is g


class TestLinearity:
    @given(
        a=arrays(np.float64, (3, 4), elements=small_floats),
        b=arrays(np.float64, (3, 4), elements=small_floats),
        alpha=small_floats,
    )
    @settings(max_examples=60, deadline=None)
    def test_gradient_linearity(self, a, b, alpha):
        """∇(αf + g) == α∇f + ∇g for f = sum(x²), g = sum(x·b)."""
        x1 = Tensor(a.copy(), requires_grad=True)
        ((x1 * x1).sum() * alpha + (x1 * Tensor(b)).sum()).backward()
        expected = alpha * 2 * a + b
        np.testing.assert_allclose(x1.grad, expected, atol=1e-8)

    @given(a=arrays(np.float64, (2, 3), elements=small_floats))
    @settings(max_examples=60, deadline=None)
    def test_sum_grad_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(a))

    @given(a=arrays(np.float64, st.integers(1, 30), elements=small_floats))
    @settings(max_examples=60, deadline=None)
    def test_relu_grad_is_indicator(self, a):
        x = Tensor(a, requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, (a > 0).astype(float))
