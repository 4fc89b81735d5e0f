"""Every zoo model trains end-to-end on its natural input shape."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import MLP, MicroResNet, SimpleCNN, cross_entropy
from repro.optim import SGD

MODELS = [
    pytest.param(lambda: MLP(48, (32,), 4, seed=0), (8, 48), id="mlp"),
    pytest.param(lambda: SimpleCNN(3, 4, width=4, seed=0), (8, 3, 8, 8), id="cnn"),
    pytest.param(
        lambda: MicroResNet(3, 4, widths=(4, 8), blocks_per_stage=1, seed=0),
        (8, 3, 8, 8),
        id="resnet",
    ),
]


@pytest.mark.parametrize("factory,shape", MODELS)
class TestModelTrainability:
    def test_loss_decreases_on_fixed_batch(self, factory, shape, rng):
        model = factory()
        x = Tensor(rng.normal(size=shape))
        y = np.arange(shape[0]) % 4
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        first = None
        for _ in range(40):
            loss = cross_entropy(model(x), y)
            if first is None:
                first = float(loss.data)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < first * 0.7

    def test_eval_mode_deterministic(self, factory, shape, rng):
        model = factory()
        model.eval()
        x = Tensor(rng.normal(size=shape))
        np.testing.assert_array_equal(model(x).data, model(x).data)

    def test_state_dict_roundtrip_preserves_output(self, factory, shape, rng):
        a, b = factory(), factory()
        x = Tensor(rng.normal(size=shape))
        a(x)  # populate BN stats where present
        b.load_state_dict(a.state_dict())
        a.eval()
        b.eval()
        np.testing.assert_allclose(a(x).data, b(x).data, atol=1e-12)
