"""Cross-engine consistency: the same algorithm through different engines.

The threaded, process, and simulated engines share WorkerNode /
ParameterServer / strategies; these tests pin down that the *algorithmic*
state evolution is engine-independent where determinism allows.
"""

import numpy as np
import pytest

from repro.core import Hyper
from repro.data import DataLoader, make_blobs
from repro.exec import (
    RemoteTrainer,
    RunConfig,
    SimulatedTrainer,
    ThreadedTrainer,
    Trainer,
    get_backend,
    list_backends,
    train,
    validate_result,
)
from repro.nn import MLP
from repro.sim import ClusterConfig

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0)
#: dense ASGD — no sparsification, so 1-worker runs are scheduling-free
DENSE_HYPER = Hyper(lr=0.1, momentum=0.7)


@pytest.fixture(scope="module")
def ds():
    return make_blobs(n_samples=400, num_classes=4, dim=12, sep=2.0, noise=0.9, seed=9)


@pytest.fixture(scope="module")
def factory():
    return lambda: MLP(12, (20,), 4, seed=5)


def sim(ds, factory, n_workers, **kw):
    defaults = dict(
        cluster=ClusterConfig.with_bandwidth(n_workers, 10, compute_mean_s=0.02),
        batch_size=16,
        total_iterations=40 * n_workers,
        hyper=HYPER,
        seed=0,
    )
    defaults.update(kw)
    return SimulatedTrainer(RunConfig("dgs", factory, ds, num_workers=n_workers, **defaults))


class TestSingleWorkerDeterminism:
    def test_sim_single_worker_matches_manual_loop(self, ds, factory):
        """With 1 worker there is no scheduling freedom: the simulated run
        must equal a hand-driven compute→handle→apply loop exactly."""
        from repro.core.layerops import layer_shapes, parameters_of
        from repro.core.methods import get_method
        from repro.ps.server import ParameterServer
        from repro.ps.worker import WorkerNode
        from repro.optim.schedules import ConstantLR

        trainer = sim(ds, factory, 1, total_iterations=30)
        result = trainer.run()

        model = factory()
        theta0 = parameters_of(model)
        shapes = layer_shapes(model)
        server = ParameterServer(theta0, 1, downstream="difference")
        loader = DataLoader(ds, 16, seed=0)
        node = WorkerNode(
            0, model, loader.worker_iterator(0, 1),
            get_method("dgs").make_strategy(shapes, HYPER),
            schedule=ConstantLR(HYPER.lr),
        )
        for _ in range(30):
            node.apply_reply(server.handle(node.compute_step()))

        manual = server.global_model()
        simulated = trainer.server.global_model()
        for name in manual:
            np.testing.assert_allclose(manual[name], simulated[name], atol=1e-12)

    def test_engine_loss_sequence_matches(self, ds, factory):
        a = sim(ds, factory, 1, total_iterations=25).run()
        b = sim(ds, factory, 1, total_iterations=25).run()
        np.testing.assert_array_equal(a.loss_vs_step.ys, b.loss_vs_step.ys)


class TestEngineAgreementStatistics:
    def test_threaded_and_sim_reach_similar_accuracy(self, ds, factory):
        """Different interleavings, same algorithm — final quality agrees."""
        s = sim(ds, factory, 3, total_iterations=120).run()
        t = ThreadedTrainer(
            RunConfig(
                "dgs", factory, ds, num_workers=3, batch_size=16,
                total_iterations=3 * 40, hyper=HYPER, seed=0,
            )
        ).run()
        assert abs(s.final_accuracy - t.final_accuracy) < 0.2

    def test_process_engine_agrees(self, ds, factory):
        s = sim(ds, factory, 2, total_iterations=60).run()
        p = RemoteTrainer(
            RunConfig(
                "dgs", factory, ds, num_workers=2, batch_size=16,
                total_iterations=2 * 30, hyper=HYPER, seed=0,
            ),
            "pipe",
        ).run()
        assert abs(s.final_accuracy - p.final_accuracy) < 0.2
        assert p.total_iterations == s.total_iterations


class TestCrossBackendParity:
    """One RunConfig through the registry: the substrate must not change
    the math.  Dense ASGD with one worker has no scheduling freedom and no
    sparsification ties, so the final server model is substrate-independent
    (exactly on in-process backends; float32-close through the wire codec).
    """

    def _run(self, backend, ds, factory):
        config = RunConfig(
            "asgd",
            factory,
            ds,
            num_workers=1,
            batch_size=16,
            total_iterations=30,
            hyper=DENSE_HYPER,
            seed=0,
        )
        trainer = Trainer(config, backend=backend)
        result = trainer.run()
        return trainer.engine.server.global_model(), result

    def test_threaded_identical_to_simulated(self, ds, factory):
        t_params, t_res = self._run("threaded", ds, factory)
        s_params, s_res = self._run("simulated", ds, factory)
        assert t_params.keys() == s_params.keys()
        for name in t_params:
            np.testing.assert_array_equal(t_params[name], s_params[name])
        assert t_res.total_iterations == s_res.total_iterations == 30
        assert t_res.final_accuracy == s_res.final_accuracy

    def test_process_float32_close_to_simulated(self, ds, factory):
        """The process backend casts every exchange to float32 on the wire,
        so replicas drift from the in-process runs at float32 resolution."""
        p_params, p_res = self._run("process", ds, factory)
        s_params, _ = self._run("simulated", ds, factory)
        for name in s_params:
            np.testing.assert_allclose(p_params[name], s_params[name], rtol=1e-4, atol=1e-5)
        assert p_res.total_iterations == 30

    def test_byte_accounting_identical_across_backends(self, ds, factory):
        """The channel layer accounts analytic payload bytes on every
        substrate, so an identical dense-ASGD config must report identical
        byte totals whether frames crossed a thread boundary, an OS pipe,
        or a simulated link."""
        totals = {}
        for backend in ("threaded", "process", "simulated"):
            config = RunConfig(
                "asgd",
                factory,
                ds,
                num_workers=2,
                batch_size=16,
                total_iterations=24,
                hyper=DENSE_HYPER,
                seed=0,
            )
            result = Trainer(config, backend=backend).run()
            totals[backend] = (
                result.upload_bytes,
                result.download_bytes,
                result.upload_dense_bytes,
                result.download_dense_bytes,
            )
        assert totals["threaded"] == totals["process"] == totals["simulated"]
        assert all(v > 0 for v in totals["threaded"])

    def test_sharding_bitwise_identical_dense_asgd_float64(self, ds, factory):
        """The tentpole invariant: partitioning the server across shards
        must not change the math.  Dense ASGD with one worker at float64
        has no scheduling freedom and no rounding headroom, so sharded
        threaded ≡ unsharded threaded ≡ simulated — bitwise."""
        runs = {}
        for backend, shards in (
            ("threaded", 4),
            ("threaded", 1),
            ("simulated", 1),
            ("simulated", 4),
        ):
            config = RunConfig(
                "asgd",
                factory,
                ds,
                num_workers=1,
                batch_size=16,
                total_iterations=30,
                hyper=DENSE_HYPER,
                seed=0,
                num_shards=shards,
                arena_dtype="float64",
            )
            trainer = Trainer(config, backend=backend)
            result = trainer.run()
            assert result.num_shards == shards
            runs[(backend, shards)] = dict(trainer.engine.server.global_model())
        reference = runs[("threaded", 1)]
        for key, params in runs.items():
            assert list(params) == list(reference)
            for name in reference:
                np.testing.assert_array_equal(
                    params[name], reference[name], err_msg=f"{key}/{name}"
                )

    def test_sharding_preserves_dgs_loss_curve_on_simulator(self, ds, factory):
        """DGS with secondary compression, multiple workers: the simulated
        backend is fully deterministic, so the sharded run must reproduce
        the unsharded loss curve and final model exactly — top-k selection
        is per-layer and never crosses a shard boundary."""
        curves = {}
        models = {}
        for shards in (1, 3):
            config = RunConfig(
                "dgs",
                factory,
                ds,
                num_workers=3,
                batch_size=16,
                total_iterations=60,
                hyper=HYPER,
                secondary_compression=True,
                seed=0,
                num_shards=shards,
            )
            trainer = Trainer(config, backend="simulated")
            result = trainer.run()
            curves[shards] = list(result.loss_vs_step.ys)
            models[shards] = dict(trainer.engine.server.global_model())
        assert curves[1] == curves[3]
        for name in models[1]:
            np.testing.assert_array_equal(models[1][name], models[3][name])

    def test_every_registered_backend_returns_valid_unified_result(self, ds, factory):
        config = RunConfig(
            "dgs",
            factory,
            ds,
            num_workers=2,
            batch_size=16,
            total_iterations=24,
            hyper=HYPER,
            seed=0,
        )
        for name in list_backends():
            backend = get_backend(name)
            result = train(config, backend=backend)
            problems = validate_result(result, measures=backend.measures)
            assert not problems, f"{name}: {problems}"
            assert result.backend == name
