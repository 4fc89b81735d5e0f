"""Dense and activation layers."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.nn import Identity, Linear, ReLU


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
    @pytest.mark.parametrize("layer,fn", [(ReLU(), lambda x: np.maximum(x, 0))])
    def test_values(self, rng, layer, fn):
        x = rng.normal(size=(3, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, fn(x), atol=1e-12)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x
