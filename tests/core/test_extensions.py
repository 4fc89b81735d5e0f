"""§6 future-work extension strategies."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import QuantizedSparseTensor, TernaryTensor, TopKSparsifier
from repro.core import METHODS, Hyper, build_strategy, get_method
from repro.core.extensions import (
    DGSTernGradStrategy,
    RandomDroppingStrategy,
    TernGradStrategy,
)

SHAPES = OrderedDict([("w", (60,))])


def grads(rng, scale=1.0):
    return OrderedDict([("w", rng.normal(size=60) * scale)])


class TestRegistry:
    def test_extensions_registered(self):
        assert {"terngrad", "random_dropping", "dgs_terngrad"} <= set(METHODS)

    def test_build_via_registry(self):
        h = Hyper(ratio=0.1, momentum=0.7)
        assert isinstance(build_strategy("terngrad", SHAPES, h), TernGradStrategy)
        assert isinstance(build_strategy("random_dropping", SHAPES, h), RandomDroppingStrategy)
        assert isinstance(build_strategy("dgs_terngrad", SHAPES, h), DGSTernGradStrategy)

    def test_spec_fields(self):
        spec = get_method("dgs_terngrad")
        assert spec.downstream == "difference"
        assert spec.momentum == "SAMomentum"


class TestTernGradStrategy:
    def test_payload_is_ternary(self, rng):
        st = TernGradStrategy(SHAPES)
        out = st.prepare(grads(rng), lr=0.1)
        assert isinstance(out["w"], TernaryTensor)
        assert set(np.unique(out["w"].signs)).issubset({-1, 0, 1})

    def test_scale_includes_lr(self, rng):
        g = grads(rng)
        st = TernGradStrategy(SHAPES)
        out = st.prepare(g, lr=0.1)
        # dequantised magnitudes bounded by lr * clipped max |g|
        assert np.abs(out["w"].to_dense()).max() <= 0.1 * np.abs(g["w"]).max() + 1e-12


class TestRandomDropping:
    def test_unbiased_rescale(self, rng):
        st = RandomDroppingStrategy(SHAPES, ratio=0.25)
        g = grads(rng)
        total = np.zeros(60)
        for _ in range(600):
            out = st.prepare(g, lr=1.0)
            total += out["w"].to_dense()
        np.testing.assert_allclose(total / 600, g["w"], atol=0.6)

    def test_count(self, rng):
        st = RandomDroppingStrategy(SHAPES, ratio=0.1)
        out = st.prepare(grads(rng), lr=1.0)
        assert out["w"].nnz == 6


class TestDGSTernGrad:
    def make(self, m=0.7, ratio=0.1):
        return DGSTernGradStrategy(
            OrderedDict(SHAPES), TopKSparsifier(ratio, min_sparse_size=0), momentum=m
        )

    def test_payload_type_and_size(self, rng):
        st = self.make()
        out = st.prepare(grads(rng), lr=0.1)
        assert isinstance(out["w"], QuantizedSparseTensor)
        assert out["w"].nnz == 6
        # 2-bit values: cheaper than float COO of the same nnz
        from repro.compression import sparse_nbytes

        assert out["w"].nbytes() < sparse_nbytes(6)

    def test_error_feedback_keeps_mass(self, rng):
        """Quantisation error stays in u, pre-decayed like any sent value
        (u holds m·u_paper): u/m + sent == velocity pre-send for the sent
        coordinates (first iteration, u0=0)."""
        m = 0.7
        st = self.make(m=m)
        g = grads(rng)
        out = st.prepare(g, lr=1.0)
        velocity = g["w"]  # u after first update, before send
        idx = out["w"].indices
        sent = out["w"].to_dense().reshape(-1)[idx]
        kept = st.u["w"].reshape(-1)[idx]
        np.testing.assert_allclose(sent + kept / m, velocity[idx], atol=1e-12)

    def test_trains_in_simulation(self, tiny_dataset, tiny_model_factory):
        from repro.exec import RunConfig, SimulatedTrainer
        from repro.sim import ClusterConfig

        trainer = SimulatedTrainer(
            RunConfig(
                "dgs_terngrad", tiny_model_factory, tiny_dataset, num_workers=3,
                batch_size=16, total_iterations=200,
                hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.2, min_sparse_size=0),
                seed=0, cluster=ClusterConfig.with_bandwidth(3, 10, compute_mean_s=0.02),
            )
        )
        r = trainer.run()
        assert r.final_accuracy > 0.7

    def test_upload_cheaper_than_dgs(self, tiny_dataset, tiny_model_factory):
        from repro.exec import RunConfig, SimulatedTrainer
        from repro.sim import ClusterConfig

        def run(method):
            config = RunConfig(
                method, tiny_model_factory, tiny_dataset, num_workers=2,
                batch_size=16, total_iterations=40,
                hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.2, min_sparse_size=0),
                seed=0, cluster=ClusterConfig.with_bandwidth(2, 10, compute_mean_s=0.02),
            )
            return SimulatedTrainer(config).run()

        assert run("dgs_terngrad").upload_bytes < run("dgs").upload_bytes


class TestQSGDStrategy:
    def test_payload_and_training(self, tiny_dataset, tiny_model_factory):
        from repro.compression.qsgd import QSGDTensor
        from repro.core.extensions import QSGDStrategy

        st = QSGDStrategy({"w": (60,)})
        out = st.prepare(OrderedDict([("w", np.random.default_rng(0).normal(size=60))]), 0.1)
        assert isinstance(out["w"], QSGDTensor)

    def test_registered(self):
        assert "qsgd" in METHODS
        assert get_method("qsgd").downstream == "model"
