"""Loss functions: value and gradient correctness."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, numerical_gradient
from repro.nn import accuracy, cross_entropy


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(5, 4))
        y = np.array([0, 1, 2, 3, 0])
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(5), y].mean()
        out = cross_entropy(Tensor(logits, requires_grad=True), y)
        assert float(out.data) == pytest.approx(expected, rel=1e-12)

    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((3, 10)), requires_grad=True)
        out = cross_entropy(logits, np.array([1, 5, 9]))
        assert float(out.data) == pytest.approx(np.log(10))

    def test_fused_backward_matches_numerical(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = np.array([0, 2, 1, 1])
        assert gradcheck(lambda l: cross_entropy(l, y), [logits], atol=1e-5)

    def test_stable_for_huge_logits(self):
        logits = Tensor(np.array([[1e4, -1e4]]), requires_grad=True)
        out = cross_entropy(logits, np.array([0]))
        assert np.isfinite(float(out.data))
        out.backward()
        assert np.isfinite(logits.grad).all()

    def test_rejects_2d_targets(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(2, 3))), np.zeros((2, 3), dtype=int))

    def test_no_grad_when_input_constant(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        out = cross_entropy(logits, np.array([0, 1]))
        assert not out.requires_grad


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(3) * 10
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0

    def test_partial(self):
        logits = np.array([[2.0, 1.0], [2.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_tensor_input(self, rng):
        logits = Tensor(np.array([[0.0, 5.0]]))
        assert accuracy(logits, np.array([1])) == 1.0
