"""The fused affine op: gradients, ownership of the weight gradient, and
agreement with the ``x @ w.T + b`` composition it replaced."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, linear


def t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def composed(x, w, b=None):
    """The primitive composition ``Linear.forward`` used to be."""
    out = x @ w.T
    return out if b is None else out + b


class TestLinearGradcheck:
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("x_shape", [(4, 3), (1, 3), (2, 5, 3)])
    def test_all_inputs(self, rng, x_shape, bias):
        x, w = t(rng, *x_shape), t(rng, 2, 3)
        inputs = [x, w, t(rng, 2)] if bias else [x, w]
        assert gradcheck(lambda *a: (linear(*a) ** 2).sum(), inputs)

    def test_frozen_input(self, rng):
        """The training case: x carries no gradient, the parameters do."""
        x = Tensor(rng.normal(size=(4, 3)))
        w, b = t(rng, 2, 3), t(rng, 2)
        assert gradcheck(lambda w, b: (linear(x, w, b) ** 2).sum(), [w, b])
        assert x.grad is None

    def test_weight_used_twice(self, rng):
        """A shared weight: the first use adopts the fresh gradient array,
        the second accumulates into it."""
        x1, x2, w = t(rng, 4, 3), t(rng, 5, 3), t(rng, 2, 3)
        fn = lambda x1, x2, w: (linear(x1, w) ** 2).sum() + (linear(x2, w) ** 2).sum()
        assert gradcheck(fn, [x1, x2, w])

    def test_feature_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="feature mismatch"):
            linear(t(rng, 4, 3), t(rng, 2, 5))


class TestAgainstComposition:
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("x_shape", [(32, 48), (1, 48), (3, 7, 48)])
    def test_forward_and_gradients_agree(self, rng, x_shape, bias):
        data = [rng.normal(size=x_shape), rng.normal(size=(16, 48))]
        if bias:
            data.append(rng.normal(size=16))
        seed_grad = rng.normal(size=x_shape[:-1] + (16,))
        results = []
        for fn in (linear, composed):
            inputs = [Tensor(d.copy(), requires_grad=True) for d in data]
            out = fn(*inputs)
            out.backward(seed_grad)
            results.append((out.data, [p.grad for p in inputs]))
        (out_f, grads_f), (out_c, grads_c) = results
        np.testing.assert_allclose(out_f, out_c, rtol=1e-12, atol=1e-12)
        for gf, gc in zip(grads_f, grads_c):
            np.testing.assert_allclose(gf, gc, rtol=1e-12, atol=1e-12)


class TestGradientLayout:
    def test_weight_gradient_is_handed_over_c_ordered(self, rng):
        x, w, b = Tensor(rng.normal(size=(8, 6))), t(rng, 5, 6), t(rng, 5)
        linear(x, w, b).sum().backward()
        for p in (w, b):
            assert p.grad.flags.c_contiguous and p.grad.flags.owndata
            assert p.grad.shape == p.shape and p.grad.dtype == p.dtype

    def test_transposed_view_still_lands_c_ordered(self, rng):
        """User code composing ``x @ w.T`` reaches the leaf through
        transpose's backward; the defensive copy fixes the order."""
        x, w = Tensor(rng.normal(size=(8, 6))), t(rng, 5, 6)
        (x @ w.T).sum().backward()
        assert w.grad.flags.c_contiguous and w.grad.flags.owndata

    def test_generic_ops_still_copy(self, rng):
        """Ownership is only taken where promised: a gradient arriving
        through a generic op is copied, not aliased."""
        a = t(rng, 3)
        seed_grad = np.ones(3)
        (a + 0.0).backward(seed_grad)
        assert not np.shares_memory(a.grad, seed_grad)
