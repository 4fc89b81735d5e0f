"""Conv/pool layer modules (the op-level math is tested in tests/autograd)."""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Conv2d, GlobalAvgPool2d, MaxPool2d


class TestConv2dLayer:
    def test_output_shape_same_padding(self, rng):
        conv = Conv2d(3, 8, 3, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_stride2(self, rng):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 4, 4, 4)

    def test_bias_flag(self, rng):
        assert Conv2d(2, 2, 3, bias=False, rng=rng).bias is None
        assert Conv2d(2, 2, 3, bias=True, rng=rng).bias is not None

    def test_param_count(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        assert conv.num_parameters() == 8 * 3 * 9 + 8

    def test_repr(self, rng):
        assert "Conv2d(3, 8" in repr(Conv2d(3, 8, 3, rng=rng))

    def test_backward_hands_the_weight_gradient_over_without_a_copy(self, rng):
        """A weight-heavy layer on a 4×4 input: the backward's traced peak
        is the weight gradient itself, once.  Reshaping the GEMM's
        (F, C·k·k) result gave the parameter a view, which was copied —
        a peak of two weight gradients."""
        conv = Conv2d(64, 128, 3, padding=1, rng=rng).astype(np.float32)
        out = conv(Tensor(rng.normal(size=(1, 64, 4, 4)).astype(np.float32)))
        seed_grad = np.ones(out.shape, dtype=np.float32)
        weight_bytes = conv.weight.data.nbytes
        tracemalloc.start()
        try:
            out.backward(seed_grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conv.weight.grad.flags.owndata and conv.bias.grad.flags.owndata
        assert peak < 1.5 * weight_bytes, f"{peak} B traced for a {weight_bytes} B gradient"


class TestPoolLayers:
    def test_max_pool_shape(self, rng):
        out = MaxPool2d(2)(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 3, 4, 4)

    def test_global_avg_pool(self, rng):
        out = GlobalAvgPool2d()(Tensor(rng.normal(size=(2, 5, 4, 4))))
        assert out.shape == (2, 5)
