"""BatchNorm behaviour: normalisation, running stats, eval mode, gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.nn import BatchNorm1d, BatchNorm2d


class TestBatchNorm1d:
    def test_normalises_batch(self, rng):
        bn = BatchNorm1d(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(64, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_affine_params_apply(self, rng):
        bn = BatchNorm1d(2)
        bn.weight.data[:] = [2.0, 3.0]
        bn.bias.data[:] = [1.0, -1.0]
        x = Tensor(rng.normal(size=(32, 2)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=0), [1.0, -1.0], atol=1e-10)

    def test_running_stats_update(self, rng):
        bn = BatchNorm1d(3, momentum=0.5)
        x = rng.normal(5.0, 1.0, size=(128, 3))
        bn(Tensor(x))
        assert (bn._buffers["running_mean"] > 1.0).all()

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm1d(3)
        for _ in range(50):
            bn(Tensor(rng.normal(2.0, 1.5, size=(64, 3))))
        bn.eval()
        x = Tensor(np.full((4, 3), 2.0))
        out = bn(x)
        np.testing.assert_allclose(out.data, 0.0, atol=0.2)

    def test_eval_deterministic(self, rng):
        bn = BatchNorm1d(3)
        bn(Tensor(rng.normal(size=(32, 3))))
        bn.eval()
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_array_equal(bn(x).data, bn(x).data)

    def test_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(rng.normal(size=(2, 3, 4))))

    def test_gradcheck(self, rng):
        bn = BatchNorm1d(3).astype(np.float64)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        assert gradcheck(lambda x: (bn(x) ** 2).sum(), [x], atol=1e-3)

    def test_grad_flows_to_affine(self, rng):
        bn = BatchNorm1d(3)
        x = Tensor(rng.normal(size=(8, 3)))
        bn(x).sum().backward()
        assert bn.weight.grad is not None and bn.bias.grad is not None


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


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        from repro.nn import LayerNorm

        ln = LayerNorm(16)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 16)))
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_batch_size_independent(self, rng):
        from repro.nn import LayerNorm

        ln = LayerNorm(8)
        x = rng.normal(size=(4, 8))
        full = ln(Tensor(x)).data
        one = ln(Tensor(x[:1])).data
        np.testing.assert_allclose(full[:1], one, atol=1e-12)

    def test_same_in_train_and_eval(self, rng):
        from repro.nn import LayerNorm

        ln = LayerNorm(8)
        x = Tensor(rng.normal(size=(4, 8)))
        train_out = ln(x).data
        ln.eval()
        np.testing.assert_array_equal(ln(x).data, train_out)

    def test_gradcheck(self, rng):
        from repro.nn import LayerNorm

        ln = LayerNorm(5).astype(np.float64)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert gradcheck(lambda x: (ln(x) ** 2).sum(), [x], atol=1e-3)

    def test_wrong_trailing_dim(self, rng):
        from repro.nn import LayerNorm

        with pytest.raises(ValueError):
            LayerNorm(5)(Tensor(rng.normal(size=(2, 6))))


class TestGroupNorm:
    def test_group_stats(self, rng):
        from repro.nn import GroupNorm

        gn = GroupNorm(2, 4)
        x = Tensor(rng.normal(5.0, 3.0, size=(2, 4, 6, 6)))
        out = gn(x).data
        grouped = out.reshape(2, 2, 2 * 36)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-10)

    def test_divisibility_enforced(self):
        from repro.nn import GroupNorm

        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_gradcheck(self, rng):
        from repro.nn import GroupNorm

        gn = GroupNorm(2, 4).astype(np.float64)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        assert gradcheck(lambda x: (gn(x) ** 2).sum(), [x], atol=1e-3)

    def test_shape_validation(self, rng):
        from repro.nn import GroupNorm

        with pytest.raises(ValueError):
            GroupNorm(2, 4)(Tensor(rng.normal(size=(2, 5, 3, 3))))
