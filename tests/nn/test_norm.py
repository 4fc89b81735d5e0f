"""BatchNorm behaviour: normalisation, running stats, eval mode, gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.nn import MLP, BatchNorm2d, SimpleCNN
from repro.nn.norm import reestimate_batchnorm


class TestBatchNorm2d:
    def test_normalises_per_channel(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(4.0, 2.0, size=(8, 3, 5, 5)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(rng.normal(size=(2, 3))))

    def test_gradcheck(self, rng):
        bn = BatchNorm2d(2).astype(np.float64)
        x = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        assert gradcheck(lambda x: (bn(x) ** 2).sum(), [x], atol=1e-3)

    def test_running_var_unbiased(self, rng):
        bn = BatchNorm2d(1, momentum=1.0).astype(np.float64)
        x = rng.normal(0.0, 3.0, size=(16, 1, 8, 8))
        bn(Tensor(x))
        n = 16 * 64
        expected = x.var() * n / (n - 1)
        np.testing.assert_allclose(bn._buffers["running_var"], expected, rtol=1e-10)

    def test_affine_params_apply(self, rng):
        bn = BatchNorm2d(2)
        bn.weight.data[:] = [2.0, 3.0]
        bn.bias.data[:] = [1.0, -1.0]
        x = Tensor(rng.normal(size=(8, 2, 4, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), [1.0, -1.0], atol=1e-10)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(3, momentum=0.5)
        x = rng.normal(5.0, 1.0, size=(16, 3, 4, 4))
        bn(Tensor(x))
        assert (bn._buffers["running_mean"] > 1.0).all()

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(3)
        for _ in range(50):
            bn(Tensor(rng.normal(2.0, 1.5, size=(16, 3, 2, 2))))
        bn.eval()
        x = Tensor(np.full((4, 3, 2, 2), 2.0))
        out = bn(x)
        np.testing.assert_allclose(out.data, 0.0, atol=0.2)

    def test_eval_deterministic(self, rng):
        bn = BatchNorm2d(3)
        bn(Tensor(rng.normal(size=(8, 3, 2, 2))))
        bn.eval()
        x = Tensor(rng.normal(size=(4, 3, 2, 2)))
        np.testing.assert_array_equal(bn(x).data, bn(x).data)

    def test_grad_flows_to_affine(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(8, 3, 2, 2)))
        bn(x).sum().backward()
        assert bn.weight.grad is not None and bn.bias.grad is not None


class TestReestimateBatchnorm:
    def test_running_stats_are_the_plain_average_over_batches(self, rng):
        bn = BatchNorm2d(2).astype(np.float64)
        bn.eval()
        batches = [rng.normal(float(i), 1.0 + i, size=(8, 2, 3, 3)) for i in range(3)]
        reestimate_batchnorm(bn, batches)
        n = 8 * 9
        means = [b.mean(axis=(0, 2, 3)) for b in batches]
        variances = [b.var(axis=(0, 2, 3)) * n / (n - 1) for b in batches]
        np.testing.assert_allclose(bn.running_mean, np.mean(means, axis=0), rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, np.mean(variances, axis=0), rtol=1e-12)
        assert bn.momentum == 0.1 and not bn.training

    def test_every_norm_layer_of_a_model_is_reestimated(self, rng):
        model = SimpleCNN(3, 4, width=4, seed=0)
        before = {name: b.copy() for name, b in model.named_buffers()}
        reestimate_batchnorm(model, [rng.normal(size=(4, 3, 8, 8)).astype(np.float32)])
        assert model.training
        for name, b in model.named_buffers():
            assert not np.array_equal(b, before[name]), name

    def test_model_without_batchnorm_draws_no_batch(self):
        def batches():
            raise AssertionError("drew a batch")
            yield  # pragma: no cover

        reestimate_batchnorm(MLP(4, (3,), 2, seed=0), batches())
