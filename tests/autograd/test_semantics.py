"""Autograd engine semantics: accumulation, dtype, graph reuse edge cases."""

import numpy as np
import pytest

from repro.autograd import DEFAULT_DTYPE, Tensor, no_grad


class TestGradAccumulation:
    def test_two_backwards_accumulate(self, rng):
        """Like PyTorch: without zero_grad, a second backward adds in."""
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_zero_grad_resets(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 3.0)

    def test_explicit_upstream_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = a * 2.0
        g = rng.normal(size=(2, 2))
        out.backward(g)
        np.testing.assert_allclose(a.grad, 2.0 * g)

    def test_tensor_upstream_gradient(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 1.0).backward(Tensor(np.ones(3)))
        np.testing.assert_allclose(a.grad, 1.0)


class TestGraphStructure:
    def test_shared_subexpression_counted_once_per_path(self, rng):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0  # shared node
        out = (b + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_grad_not_tracked_through_data_mutation(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = (a * 2.0).sum()
        a.data[0] = 100.0  # mutate after forward: backward uses stale capture
        out.backward()
        # gradient of 2*a w.r.t. a is 2 regardless of current value
        np.testing.assert_allclose(a.grad, [2.0])

    def test_constant_branch_contributes_no_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        c = Tensor(rng.normal(size=3))  # no grad
        ((a + c) * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(a.grad, c.data)


class TestNoGradInterplay:
    def test_ops_inside_no_grad_are_constants_outside(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        with no_grad():
            frozen = a * 2.0
        out = (a * frozen).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, frozen.data)  # only the live path

    def test_backward_of_pretaped_graph_after_no_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        out = (a * 3.0).sum()
        with no_grad():
            pass
        out.backward()
        np.testing.assert_allclose(a.grad, 3.0)


class TestDtype:
    """Dtype follows the arrays: nothing is forced to one width.

    A floating ndarray or NumPy scalar keeps its dtype, anything that brings
    none (Python numbers, lists, int/bool arrays) becomes DEFAULT_DTYPE, and
    a Python scalar operand takes the dtype of the tensor it meets.
    """

    def test_float64_end_to_end(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        assert a.dtype == np.float64
        (a * a).sum().backward()
        assert a.grad.dtype == np.float64

    def test_float32_end_to_end(self, rng):
        a = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        out = ((a * a + 1.0) / 2.0 - 0.5).relu().sum() ** 2
        assert a.dtype == out.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float32

    def test_int_input_promoted(self):
        """Data without a floating dtype of its own lands on the default."""
        assert DEFAULT_DTYPE == np.float32
        for data in ([1, 2, 3], 2, 2.5, True, np.arange(3), np.array([True, False])):
            assert Tensor(data).dtype == DEFAULT_DTYPE, data

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_floating_arrays_and_numpy_scalars_keep_their_dtype(self, dtype):
        assert Tensor(np.ones(3, dtype=dtype)).dtype == dtype
        assert Tensor(dtype(2.5)).dtype == dtype
        assert Tensor(np.ones(3, dtype=dtype)).sum().dtype == dtype  # 0-d result

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a + 2.0,
            lambda a: 2.0 + a,
            lambda a: a - 2,
            lambda a: 2 - a,
            lambda a: a * 2.0,
            lambda a: 2.0 * a,
            lambda a: a / 2.0,
            lambda a: 2.0 / a,
            lambda a: a**2,
            lambda a: a**0.5,
            lambda a: a.mean(),
            lambda a: -a,
        ],
    )
    def test_python_scalar_operand_adopts_the_tensors_dtype(self, dtype, op):
        """A scalar wrapped as a 0-d float64 array would be *strong* in NumPy's
        promotion and silently re-widen a float32 graph."""
        a = Tensor(np.full(3, 1.5, dtype=dtype), requires_grad=True)
        out = op(a)
        assert out.dtype == dtype
        out.sum().backward()
        assert a.grad.dtype == dtype

    def test_mixed_width_tensors_promote_like_numpy(self):
        wide = Tensor(np.ones(3)) + Tensor(np.ones(3, dtype=np.float32))
        assert wide.dtype == np.float64

    def test_factories_default_to_the_default_dtype(self):
        from repro.autograd.tensor import ones, zeros

        assert zeros(3).dtype == ones((2, 2)).dtype == DEFAULT_DTYPE
        assert zeros(3, dtype=np.float64).dtype == np.float64
