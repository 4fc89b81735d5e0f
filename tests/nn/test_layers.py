"""Dense/activation/structural layers."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.nn import Dropout, Flatten, Identity, Linear, ReLU, Sigmoid, Tanh


class TestLinear:
    def test_forward_values(self, rng):
        lin = Linear(4, 3, rng=rng).astype(np.float64)
        x = rng.normal(size=(5, 4))
        out = lin(Tensor(x))
        np.testing.assert_allclose(out.data, x @ lin.weight.data.T + lin.bias.data)

    def test_grad_flows_to_params(self, rng):
        lin = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)))
        lin(x).sum().backward()
        assert lin.weight.grad is not None and lin.bias.grad is not None

    def test_gradcheck(self, rng):
        lin = Linear(3, 2, rng=rng).astype(np.float64)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda x: (lin(x) ** 2).sum(), [x])

    def test_init_scale_shrinks_with_fan_in(self):
        rng = np.random.default_rng(0)
        small = Linear(10, 10, rng=rng).weight.data.std()
        big = Linear(1000, 10, rng=rng).weight.data.std()
        assert big < small

    def test_repr(self):
        assert "Linear(4, 3)" in repr(Linear(4, 3))


class TestActivations:
    @pytest.mark.parametrize("layer,fn", [(ReLU(), lambda x: np.maximum(x, 0)),
                                          (Tanh(), np.tanh),
                                          (Sigmoid(), lambda x: 1 / (1 + np.exp(-x)))])
    def test_values(self, rng, layer, fn):
        x = rng.normal(size=(3, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, fn(x), atol=1e-12)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x


class TestFlatten:
    def test_flattens_trailing(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        assert Flatten()(x).shape == (4, 18)


class TestDropout:
    def test_eval_is_identity(self, rng):
        d = Dropout(0.5, rng=rng)
        d.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_train_zeroes_and_rescales(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = d(x).data
        zeros = (out == 0).mean()
        assert 0.4 < zeros < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_p_zero_is_identity(self, rng):
        d = Dropout(0.0)
        x = Tensor(rng.normal(size=(5, 5)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
