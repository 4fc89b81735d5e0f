"""Cross-engine consistency: the same algorithm through different engines.

The remote (process and socket) and simulated engines share WorkerNode /
ParameterServer / strategies; these tests pin down that the *algorithmic*
state evolution is engine-independent where determinism allows.
"""

import numpy as np
import pytest

from repro.core import Hyper
from repro.data import DataLoader, make_blobs, synthetic_cifar10
from repro.exec import (
    BACKENDS,
    RemoteTrainer,
    RunConfig,
    SimulatedTrainer,
    Trainer,
    train,
    validate_result,
)
from repro.nn import MLP, SimpleCNN
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
    def test_process_engine_agrees(self, ds, factory):
        """Different interleavings, same algorithm — final quality agrees."""
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

    def test_process_evaluates_a_batchnorm_model_like_simulated(self):
        """The simulator evaluates θ0 + M with worker 0's BatchNorm running
        statistics; those never leave a worker process, so the process
        engine re-estimates them on θ0 + M.  One dense worker trains the
        same θ on both, so only the statistics differ: fresh ones would
        cost about a quarter of the accuracy and triple the loss."""
        ds = synthetic_cifar10(n_samples=600, size=8, difficulty=4.0, seed=7)
        config = RunConfig(
            "asgd",
            lambda: SimpleCNN(3, 10, width=8, seed=0),
            ds,
            num_workers=1,
            batch_size=32,
            total_iterations=60,
            hyper=DENSE_HYPER,
            seed=0,
        )
        s = train(config, backend="simulated")
        p = train(config, backend="process")
        assert abs(p.final_accuracy - s.final_accuracy) < 0.1
        assert p.final_loss < 1.25 * s.final_loss


class TestCrossBackendParity:
    """One RunConfig through the registry: the substrate must not change
    the math.  Dense ASGD with one worker has no scheduling freedom and no
    sparsification ties, so the final server model is substrate-independent
    — bitwise, since the float32 state is what the wire codec carries.
    """

    def _run(self, backend, ds, factory, **fields):
        config = RunConfig(
            "asgd",
            factory,
            ds,
            num_workers=1,
            batch_size=16,
            total_iterations=30,
            hyper=DENSE_HYPER,
            seed=0,
            **fields,
        )
        trainer = Trainer(config, backend=backend)
        result = trainer.run()
        return dict(trainer.engine.server.global_model()), result

    def test_process_identical_to_simulated(self, ds, factory):
        p_params, p_res = self._run("process", ds, factory)
        s_params, s_res = self._run("simulated", ds, factory)
        assert p_params.keys() == s_params.keys()
        for name in p_params:
            np.testing.assert_array_equal(p_params[name], s_params[name])
        assert p_res.total_iterations == s_res.total_iterations == 30
        assert p_res.final_accuracy == s_res.final_accuracy
        assert p_res.final_loss == s_res.final_loss

    def test_process_float32_close_to_simulated(self, ds, factory):
        """With float64 server state the wire codec's float32 cast is lossy,
        so the process replica drifts from the simulator at float32
        resolution — and no further."""
        p_params, p_res = self._run("process", ds, factory, arena_dtype="float64")
        s_params, _ = self._run("simulated", ds, factory, arena_dtype="float64")
        assert p_params.keys() == s_params.keys()
        for name in s_params:
            np.testing.assert_allclose(p_params[name], s_params[name], rtol=1e-4, atol=1e-5)
        assert p_res.total_iterations == 30

    def test_byte_accounting_identical_across_backends(self, ds, factory):
        """The channel layer accounts analytic payload bytes on every
        substrate, so an identical dense-ASGD config must report identical
        byte totals whether frames crossed an OS pipe, a TCP socket or a
        simulated link."""
        totals = {}
        for backend in ("process", "socket", "simulated"):
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
        assert totals["process"] == totals["socket"] == totals["simulated"]
        assert all(v > 0 for v in totals["process"])

    def test_sharding_bitwise_identical_dense_asgd_float64(self, ds, factory):
        """The tentpole invariant: partitioning the server across shards
        must not change the math.  Dense ASGD with one worker has no
        scheduling freedom, so sharded process ≡ unsharded process ≡
        simulated — bitwise; and at float64, which leaves no rounding
        headroom, sharded ≡ unsharded on each engine (the process engine's
        float32 wire cast keeps it off the simulator's float64 numbers)."""
        for dtype, keys in (
            (None, (("process", 4), ("process", 1), ("simulated", 1))),
            ("float64", (("process", 4), ("process", 1))),
            ("float64", (("simulated", 1), ("simulated", 4))),
        ):
            runs = {}
            for backend, shards in keys:
                params, result = self._run(
                    backend, ds, factory, num_shards=shards, arena_dtype=dtype
                )
                assert result.num_shards == shards
                runs[(backend, shards)] = params
            reference = runs[keys[-1]]
            for key, params in runs.items():
                assert list(params) == list(reference)
                for name in reference:
                    np.testing.assert_array_equal(
                        params[name], reference[name], err_msg=f"{dtype}/{key}/{name}"
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
        for name, backend in BACKENDS.items():
            result = train(config, backend=backend)
            problems = validate_result(result, measures=backend.measures)
            assert not problems, f"{name}: {problems}"
            assert result.backend == name
