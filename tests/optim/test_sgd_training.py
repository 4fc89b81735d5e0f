"""End-to-end optimizer behaviour on real objectives."""

import numpy as np

from repro.autograd import Tensor
from repro.nn import MLP, cross_entropy
from repro.optim import SGD, StepDecay


def quadratic_min(opt_factory, steps=120):
    """Minimise ||w - target||^2 and return final distance."""
    from repro.nn.module import Parameter

    target = np.array([1.0, -2.0, 3.0])
    w = Parameter(np.zeros(3))
    opt = opt_factory([w])
    for _ in range(steps):
        w.grad = 2 * (w.data - target)
        opt.step()
    return float(np.linalg.norm(w.data - target))


class TestConvergence:
    def test_plain_sgd_converges_on_quadratic(self):
        assert quadratic_min(lambda p: SGD(p, lr=0.1)) < 1e-6

    def test_momentum_converges_on_quadratic(self):
        # heavy ball rings around the optimum; needs more steps to settle
        assert quadratic_min(lambda p: SGD(p, lr=0.05, momentum=0.9), steps=500) < 1e-6

    def test_nesterov_converges(self):
        assert quadratic_min(lambda p: SGD(p, lr=0.05, momentum=0.9, nesterov=True), steps=500) < 1e-6

    def test_weight_decay_biases_toward_zero(self):
        d_plain = quadratic_min(lambda p: SGD(p, lr=0.1))
        d_decayed = quadratic_min(lambda p: SGD(p, lr=0.1, weight_decay=1.0))
        assert d_decayed > d_plain  # pulled away from target toward 0

    def test_momentum_faster_on_ill_conditioned(self):
        """Heavy-ball accelerates along the shallow axis."""
        from repro.nn.module import Parameter

        def run(momentum):
            w = Parameter(np.array([10.0, 10.0]))
            opt = SGD([w], lr=0.02, momentum=momentum)
            scales = np.array([1.0, 0.05])  # condition number 20
            for _ in range(150):
                w.grad = 2 * scales * w.data
                opt.step()
            return float(np.abs(w.data).max())

        assert run(0.9) < run(0.0)


class TestScheduledTraining:
    def test_mlp_with_step_decay_trains(self, tiny_dataset, tiny_model_factory):
        model = tiny_model_factory()
        opt = SGD(model.parameters(), lr=0.2, momentum=0.7)
        schedule = StepDecay(0.2, milestones=(60,), factor=0.1)
        x, y = tiny_dataset.x_train, tiny_dataset.y_train
        rng = np.random.default_rng(0)
        for it in range(100):
            opt.lr = schedule(it)
            idx = rng.permutation(len(x))[:32]
            loss = cross_entropy(model(Tensor(x[idx])), y[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.5
