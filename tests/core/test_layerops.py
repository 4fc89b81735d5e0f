"""Per-layer vector helpers."""

import tracemalloc

import numpy as np
import pytest

from repro.core.layerops import (
    add_scaled,
    assign_parameters,
    gradients_of,
    layer_shapes,
    parameters_of,
    zeros_like_layers,
)
from repro.nn import MLP, cross_entropy
from repro.autograd import Tensor


@pytest.fixture
def model():
    return MLP(6, (8,), 3, seed=0)


class TestLayerOps:
    def test_layer_shapes(self, model):
        shapes = layer_shapes(model)
        assert shapes["net.0.weight"] == (8, 6)

    def test_zeros_like(self, model):
        z = zeros_like_layers(layer_shapes(model))
        assert all((arr == 0).all() for arr in z.values())

    def test_parameters_of_copies(self, model):
        params = parameters_of(model)
        params["net.0.weight"][...] = 99.0
        assert not np.allclose(model.net.layers[0].weight.data, 99.0)

    def test_assign_roundtrip(self, model):
        params = parameters_of(model)
        other = MLP(6, (8,), 3, seed=5)
        assign_parameters(other, params)
        np.testing.assert_array_equal(
            other.net.layers[0].weight.data, model.net.layers[0].weight.data
        )

    def test_gradients_of_with_missing(self, model, rng):
        loss = cross_entropy(model(Tensor(rng.normal(size=(4, 6)))), np.array([0, 1, 2, 0]))
        loss.backward()
        grads = gradients_of(model)
        assert set(grads) == set(dict(model.named_parameters()))

    def test_gradients_of_zero_when_no_backward(self, model):
        grads = gradients_of(model)
        assert all((g == 0).all() for g in grads.values())

    def test_add_scaled(self):
        """Chunked through one per-call chunk buffer, bitwise the plain
        expression at equal dtype, at every chunk boundary."""
        for size in (0, 3, 32768, 32769, 100_000):
            rng = np.random.default_rng(size)
            src = rng.normal(size=size)
            dest = rng.normal(size=size)
            want = dest + 0.3 * src
            tracemalloc.start()
            try:
                add_scaled(dest, src, 0.3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(dest, want)
            assert peak <= 32768 * 8 + 4096  # one chunk buffer and its views

    def test_add_scaled_rejects_strided_dest(self):
        """A non-contiguous dest cannot be flattened in place: refuse
        rather than update a copy."""
        with pytest.raises(ValueError, match="C-contiguous"):
            add_scaled(np.zeros((4, 3)).T, np.ones((3, 4)), 0.5)

    def test_add_scaled_float64_into_float32(self):
        """A float64 gradient folds into float32 state through dest-dtype
        scratch: one rounding of the product, one of the sum, and no
        ``src``-sized temporary (one float32 chunk plus NumPy's cast buffer)."""
        rng = np.random.default_rng(0)
        src = rng.normal(size=(400, 250))
        dest = rng.normal(size=(400, 250)).astype(np.float32)
        want = dest + (0.3 * src).astype(np.float32)
        tracemalloc.start()
        try:
            add_scaled(dest, src, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(dest, want)
        assert dest.dtype == np.float32 and peak < src.nbytes // 4
