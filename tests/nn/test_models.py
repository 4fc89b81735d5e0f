"""Model zoo: shapes, determinism, trainability."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    MLP,
    MicroResNet,
    SimpleCNN,
    cross_entropy,
    micro_resnet18,
    micro_resnet_imagenet,
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
    def test_resnet18_shape_and_depth(self, rng):
        m = micro_resnet18(num_classes=10, seed=0)
        out = m(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 10)
        # 4 stages × 2 blocks
        assert len(m.stages) == 8

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

    def test_imagenet_variant(self, rng):
        m = micro_resnet_imagenet(num_classes=100, seed=0)
        out = m(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 100)


class TestSmallVGG:
    def test_output_shape(self, rng):
        from repro.nn import SmallVGG

        m = SmallVGG(3, 10, widths=(4, 8), seed=0)
        out = m(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 10)

    def test_depth(self):
        from repro.nn import Conv2d, SmallVGG

        m = SmallVGG(3, 10, widths=(4, 8), seed=0)
        convs = [mod for mod in m.modules() if isinstance(mod, Conv2d)]
        assert len(convs) == 4  # two per block

    def test_trains_one_step(self, rng):
        from repro.nn import SmallVGG

        m = SmallVGG(3, 4, widths=(4,), seed=0)
        loss = cross_entropy(m(Tensor(rng.normal(size=(4, 3, 8, 8)))), np.array([0, 1, 2, 3]))
        loss.backward()
        assert all(p.grad is not None for p in m.parameters())

    def test_seed_determinism(self, rng):
        from repro.nn import SmallVGG

        a, b = SmallVGG(3, 4, seed=2), SmallVGG(3, 4, seed=2)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        a.eval(); b.eval()
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_works_in_distributed_training(self, rng):
        from repro.core import Hyper
        from repro.data import make_image_classes
        from repro.nn import SmallVGG
        from repro.exec import RunConfig, SimulatedTrainer
        from repro.sim import ClusterConfig

        ds = make_image_classes(n_samples=240, num_classes=4, size=8, difficulty=1.0, seed=0)
        config = RunConfig(
            "dgs", lambda: SmallVGG(3, 4, widths=(4, 8), seed=0), ds, num_workers=2,
            batch_size=16, total_iterations=60,
            hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1), seed=0,
            cluster=ClusterConfig.with_bandwidth(2, 10, compute_mean_s=0.02),
        )
        r = SimulatedTrainer(config).run()
        assert r.final_accuracy > 0.6


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
