"""Module registration, state dicts, train/eval modes."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import BatchNorm2d, Linear, MLP, Module, Parameter, ReLU, Sequential


class TestRegistration:
    def test_parameters_discovered(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))
        names = [n for n, _ in lin.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_module_prefixes(self):
        model = MLP(4, (8,), 2, seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert "net.0.weight" in names and "net.2.bias" in names

    def test_num_parameters(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))
        assert lin.num_parameters() == 4 * 3 + 3

    def test_no_bias(self):
        lin = Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        assert [n for n, _ in lin.named_parameters()] == ["weight"]

    def test_modules_iterates_tree(self):
        model = Sequential(Linear(2, 2), ReLU())
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds == ["Sequential", "Linear", "ReLU"]

    def test_buffers_discovered(self):
        bn = BatchNorm2d(4)
        names = [n for n, _ in bn.named_buffers()]
        assert set(names) == {"running_mean", "running_var"}


class TestTrainEval:
    def test_train_eval_propagates(self):
        model = MLP(4, (8,), 2, seed=0)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestStateDict:
    def test_roundtrip(self):
        m1 = MLP(4, (8,), 2, seed=0)
        m2 = MLP(4, (8,), 2, seed=99)
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_copies(self):
        m = MLP(4, (8,), 2, seed=0)
        state = m.state_dict()
        first = next(iter(state))
        state[first][...] = 123.0
        assert not np.allclose(dict(m.named_parameters())[first].data, 123.0)

    def test_buffers_roundtrip(self):
        bn1, bn2 = BatchNorm2d(3), BatchNorm2d(3)
        bn1(Tensor(np.random.default_rng(0).normal(size=(4, 3, 2, 2))))
        bn2.load_state_dict(bn1.state_dict())
        np.testing.assert_array_equal(bn1._buffers["running_mean"], bn2._buffers["running_mean"])

    def test_unknown_key_raises(self):
        m = MLP(4, (8,), 2, seed=0)
        with pytest.raises(KeyError):
            m.load_state_dict({"nope": np.zeros(1)})


class TestZeroGrad:
    def test_clears_all(self):
        from repro.nn import cross_entropy

        m = MLP(4, (8,), 2, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        cross_entropy(m(x), np.array([0, 1, 0, 1])).backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestSequential:
    def test_len_iter(self):
        s = Sequential(Linear(2, 2), ReLU(), Linear(2, 2))
        assert len(s) == 3
        assert len(list(iter(s))) == 3

    def test_forward_chains(self):
        rng = np.random.default_rng(0)
        s = Sequential(Linear(3, 3, rng=rng), ReLU())
        x = Tensor(rng.normal(size=(2, 3)))
        out = s(x)
        assert (out.data >= 0).all()
