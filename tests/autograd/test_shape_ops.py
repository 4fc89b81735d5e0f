"""Shape-manipulation autograd ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck


def t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestReshape:
    def test_reshape_roundtrip(self, rng):
        a = t(rng, 2, 6)
        assert gradcheck(lambda a: a.reshape(3, 4).sum(), [a])

    def test_reshape_minus_one(self, rng):
        a = t(rng, 2, 6)
        assert a.reshape(4, -1).shape == (4, 3)

    def test_reshape_tuple_arg(self, rng):
        a = t(rng, 2, 6)
        assert a.reshape((3, 4)).shape == (3, 4)

    def test_reshape_grad_shape(self, rng):
        a = t(rng, 2, 6)
        a.reshape(12).sum().backward()
        assert a.grad.shape == (2, 6)


class TestTranspose:
    def test_default_reverses_axes(self, rng):
        a = t(rng, 2, 3, 4)
        assert a.transpose().shape == (4, 3, 2)

    def test_explicit_axes(self, rng):
        a = t(rng, 2, 3, 4)
        assert a.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_grad(self, rng):
        a = t(rng, 3, 5)
        assert gradcheck(lambda a: (a.T * a.T).sum(), [a])

    def test_T_property(self, rng):
        a = t(rng, 3, 5)
        np.testing.assert_allclose(a.T.data, a.data.T)


class TestIndexing:
    def test_slice_grad(self, rng):
        a = t(rng, 5, 4)
        out = a[1:3]
        out.backward(np.ones((2, 4)))
        expected = np.zeros((5, 4))
        expected[1:3] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_integer_array_index_accumulates(self, rng):
        a = t(rng, 4)
        idx = np.array([0, 0, 2])
        out = a[idx]
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [2, 0, 1, 0])

    def test_gradcheck_fancy(self, rng):
        a = t(rng, 6)
        idx = np.array([1, 3, 3, 5])
        assert gradcheck(lambda a: (a[idx] ** 2).sum(), [a])
