"""Model zoo: shapes, determinism, trainability."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    MLP,
    MicroResNet,
    SimpleCNN,
    cross_entropy,
)


class TestMLP:
    def test_output_shape(self, rng):
        m = MLP(10, (16, 16), 3, seed=0)
        out = m(Tensor(rng.normal(size=(5, 10))))
        assert out.shape == (5, 3)

    def test_flattens_images(self, rng):
        m = MLP(2 * 3 * 3, (8,), 2, seed=0)
        out = m(Tensor(rng.normal(size=(4, 2, 3, 3))))
        assert out.shape == (4, 2)

    def test_seed_determinism(self):
        a, b = MLP(6, (8,), 2, seed=5), MLP(6, (8,), 2, seed=5)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_overfits_tiny_batch(self, rng):
        m = MLP(8, (32,), 2, seed=0)
        x, y = rng.normal(size=(8, 8)), np.array([0, 1] * 4)
        for _ in range(200):
            loss = cross_entropy(m(Tensor(x)), y)
            m.zero_grad()
            loss.backward()
            for p in m.parameters():
                p.data -= 0.3 * p.grad
        assert float(loss.data) < 0.05


class TestSimpleCNN:
    def test_output_shape(self, rng):
        m = SimpleCNN(3, 10, width=4, seed=0)
        out = m(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 10)

    def test_grad_reaches_all_params(self, rng):
        m = SimpleCNN(3, 4, width=4, seed=0)
        loss = cross_entropy(m(Tensor(rng.normal(size=(4, 3, 8, 8)))), np.array([0, 1, 2, 3]))
        loss.backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, name
            assert np.abs(p.grad).sum() > 0, name


class TestMicroResNet:

    def test_downsampling_halves_spatial(self, rng):
        m = MicroResNet(3, 5, widths=(4, 8), blocks_per_stage=1, seed=0)
        out = m(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 5)

    def test_projection_shortcut_used_on_width_change(self):
        from repro.nn import BasicBlock, Identity

        block = BasicBlock(4, 8, stride=2, rng=np.random.default_rng(0))
        assert not isinstance(block.shortcut, Identity)
        block_same = BasicBlock(4, 4, stride=1, rng=np.random.default_rng(0))
        assert isinstance(block_same.shortcut, Identity)

    def test_grad_reaches_stem(self, rng):
        m = MicroResNet(3, 4, widths=(4, 8), blocks_per_stage=1, seed=0)
        loss = cross_entropy(m(Tensor(rng.normal(size=(2, 3, 8, 8)))), np.array([0, 1]))
        loss.backward()
        assert np.abs(m.stem.weight.grad).sum() > 0


class TestGradientLayout:
    """What the worker strategies are handed: every parameter gradient in
    the layout and dtype of the parameter, as an array of its own."""

    @pytest.mark.parametrize(
        "model,x_shape",
        [
            (lambda: MLP(768, (1024, 128), 10, seed=0), (4, 768)),
            (lambda: SimpleCNN(3, 4, width=4, seed=0), (4, 3, 8, 8)),
            (lambda: MicroResNet(3, 4, widths=(4, 8), blocks_per_stage=1, seed=0), (4, 3, 8, 8)),
        ],
        ids=["mlp", "cnn", "micro_resnet"],
    )
    def test_param_grads_are_c_contiguous_and_owned(self, rng, model, x_shape):
        m = model()
        loss = cross_entropy(m(Tensor(rng.normal(size=x_shape))), np.array([0, 1, 2, 3]))
        loss.backward()
        for name, p in m.named_parameters():
            assert p.grad.flags.c_contiguous, name
            assert p.grad.flags.owndata, name
            assert p.grad.dtype == p.data.dtype and p.grad.shape == p.data.shape, name
