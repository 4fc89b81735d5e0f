"""Failure injection and staleness damping in the simulated engine."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.exec import RunConfig, SimulatedTrainer
from repro.sim import ClusterConfig

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0)


def make(tiny_dataset, tiny_model_factory, **kw):
    defaults = dict(
        cluster=ClusterConfig.with_bandwidth(4, 10, compute_mean_s=0.02),
        batch_size=16,
        total_iterations=120,
        hyper=HYPER,
        seed=0,
    )
    defaults.update(kw)
    return SimulatedTrainer(
        RunConfig("dgs", tiny_model_factory, tiny_dataset, num_workers=4, **defaults)
    )


class TestFailureInjection:
    def test_training_survives_worker_crash(self, tiny_dataset, tiny_model_factory):
        r = make(tiny_dataset, tiny_model_factory, fail_at={3: 5}).run()
        assert r.total_iterations == 120  # survivors pick up the budget
        assert r.final_accuracy > 0.7

    def test_dead_worker_stops_contributing(self, tiny_dataset, tiny_model_factory):
        trainer = make(tiny_dataset, tiny_model_factory, fail_at={3: 5})
        trainer.run()
        assert trainer.workers[3].iteration == 5
        assert all(trainer.workers[w].iteration > 5 for w in range(3))

    def test_all_workers_crashing_ends_early(self, tiny_dataset, tiny_model_factory):
        trainer = make(
            tiny_dataset, tiny_model_factory, fail_at={w: 3 for w in range(4)}
        )
        r = trainer.run()
        assert r.total_iterations == 4 * 3

    def test_crash_at_zero_contributes_nothing(self, tiny_dataset, tiny_model_factory):
        trainer = make(tiny_dataset, tiny_model_factory, fail_at={0: 0})
        trainer.run()
        assert trainer.workers[0].iteration == 0

    def test_dead_worker_staleness_grows(self, tiny_dataset, tiny_model_factory):
        trainer = make(tiny_dataset, tiny_model_factory, fail_at={3: 2})
        trainer.run()
        # Server still tracks the dead worker; its gap keeps growing.
        assert trainer.server.tracker.staleness(3) > 50


class TestStalenessDamping:
    def test_damping_changes_trajectory(self, tiny_dataset, tiny_model_factory):
        base = make(tiny_dataset, tiny_model_factory).run()
        damped = make(tiny_dataset, tiny_model_factory, staleness_damping=True).run()
        assert base.final_loss != damped.final_loss

    def test_damped_update_is_scaled(self, rng):
        """Direct server check: an update arriving with staleness s is
        applied scaled by 1/(s+1)."""
        from collections import OrderedDict

        from repro.compression import encode_sparse
        from repro.ps import GradientMessage, ParameterServer

        theta0 = OrderedDict([("w", np.zeros(10))])
        srv = ParameterServer(theta0, 2, downstream="difference", staleness_damping=True)
        g = np.zeros(10)
        g[0] = 1.0
        # worker 1 pushes twice -> worker 0's next update has staleness 2
        for _ in range(2):
            srv.handle(GradientMessage(1, OrderedDict([("w", encode_sparse(g))]), 0))
        m_before = srv.tracker.M["w"].copy()
        srv.handle(GradientMessage(0, OrderedDict([("w", encode_sparse(g))]), 0))
        applied = m_before[0] - srv.tracker.M["w"][0]
        assert applied == pytest.approx(1.0 / 3.0)

    def test_damping_still_learns(self, tiny_dataset, tiny_model_factory):
        r = make(tiny_dataset, tiny_model_factory, staleness_damping=True,
                 total_iterations=200).run()
        assert r.final_accuracy > 0.7
