"""Micro-benchmarks of the hot kernels (classic pytest-benchmark usage).

These are the per-iteration costs every experiment pays: top-k selection
(exact vs the sampled adaptive variant), COO encoding, SAMomentum's
prepare step, conv2d forward+backward, and one simulator exchange.  Each
selection/encode/strategy kernel appears twice — the dict-of-float64
parity oracle (``repro.core.reference``) and the production arena/streamed
path — mirroring the pairs that
``check_regression.py`` gates against ``BENCH_kernels.json``.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.autograd import Tensor, conv2d
from repro.compression import (
    AdaptiveThresholdSparsifier,
    TopKSparsifier,
    encode_indices,
    encode_mask,
    topk_mask,
    topk_select,
)
from repro.core import Hyper
from repro.core.arena import LayerArena
from repro.core.reference import ReferenceSAMomentumStrategy, ReferenceTracker
from repro.core.strategies import SAMomentumStrategy

N = 1_000_000  # ~ one large conv layer of ResNet-18


@pytest.fixture(scope="module")
def big_layer():
    return np.random.default_rng(0).normal(size=N)


class TestSelectionKernels:
    def test_exact_topk_1pct(self, benchmark, big_layer):
        mask = benchmark(topk_mask, big_layer, 0.01)
        assert mask.sum() == N // 100

    def test_adaptive_threshold_1pct(self, benchmark, big_layer):
        sp = AdaptiveThresholdSparsifier(0.01, min_sparse_size=0)
        sp.mask(big_layer)  # warm the tracked threshold
        mask = benchmark(sp.mask, big_layer)
        assert 0 < mask.sum() < N // 10

    def test_topk_select_fused(self, benchmark, big_layer):
        """Fused select-and-extract: selected indices straight to SparseTensor."""
        st = benchmark(topk_select, big_layer, 0.01)
        assert st.nnz == N // 100

    def test_coo_encode(self, benchmark, big_layer):
        mask = topk_mask(big_layer, 0.01)
        st = benchmark(encode_mask, big_layer, mask)
        assert st.nnz == N // 100

    def test_coo_encode_from_indices(self, benchmark, big_layer):
        """O(k) gather from known sorted indices vs O(n) mask scan above."""
        idx = np.flatnonzero(topk_mask(big_layer, 0.01))
        st = benchmark(encode_indices, big_layer, idx, assume_sorted=True)
        assert st.nnz == N // 100


class TestStrategyKernels:
    def test_samomentum_prepare(self, benchmark, big_layer):
        shapes = OrderedDict([("w", (N,))])
        strat = ReferenceSAMomentumStrategy(shapes, TopKSparsifier(0.01, min_sparse_size=0), 0.7)
        grads = OrderedDict([("w", big_layer)])
        out = benchmark(strat.prepare, grads, 0.1)
        assert out["w"].nnz == N // 100

    def test_samomentum_prepare_arena(self, benchmark, big_layer):
        shapes = OrderedDict([("w", (N,))])
        strat = SAMomentumStrategy(shapes, TopKSparsifier(0.01, min_sparse_size=0), 0.7)
        grads = OrderedDict([("w", big_layer)])
        out = benchmark(strat.prepare, grads, 0.1)
        assert out["w"].nnz == N // 100


class TestArenaKernels:
    """Server-side payload application: the oracle's dict loop vs one
    fused flat op."""

    LAYERS = 48

    def _shapes(self):
        per = N // (2 * self.LAYERS)
        shapes = OrderedDict(
            (f"layer{i:02d}", (per if i % 2 == 0 else per // 2,))
            for i in range(self.LAYERS - 1)
        )
        used = sum(s[0] for s in shapes.values())
        shapes["layer_final"] = (N - used,)
        return shapes

    def test_payload_apply_dict(self, benchmark):
        rng = np.random.default_rng(0)
        shapes = self._shapes()
        tracker = ReferenceTracker(shapes, 1, track_differences=False)
        upd = OrderedDict((name, rng.normal(size=s)) for name, s in shapes.items())
        benchmark(tracker.apply_update, upd)

    def test_payload_apply_arena(self, benchmark):
        rng = np.random.default_rng(0)
        shapes = self._shapes()
        m = LayerArena(shapes, dtype=np.float32)
        upd = LayerArena.from_layers(
            OrderedDict((name, rng.normal(size=s)) for name, s in shapes.items()),
            dtype=np.float32,
        )
        benchmark(m.add_payload, upd, -1.0)


class TestSubstrateKernels:
    def test_conv2d_forward_backward(self, benchmark):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(32, 16, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 16, 3, 3)), requires_grad=True)

        def step():
            x.zero_grad()
            w.zero_grad()
            out = conv2d(x, w, None, stride=1, pad=1)
            out.backward(np.ones_like(out.data))
            return out

        out = benchmark(step)
        assert out.shape == (32, 32, 8, 8)

    def test_simulator_exchange(self, benchmark, tiny_setup):
        """One full worker↔server exchange (compute+compress+apply)."""
        trainer = tiny_setup

        def exchange():
            node = trainer.workers[0]
            msg = node.compute_step()
            reply = trainer.server.handle(msg)
            node.apply_reply(reply)
            return reply

        reply = benchmark(exchange)
        assert reply is not None


@pytest.fixture(scope="module")
def tiny_setup():
    from repro.data import make_blobs
    from repro.exec import RunConfig, SimulatedTrainer
    from repro.nn import MLP
    from repro.sim import ClusterConfig

    ds = make_blobs(n_samples=400, num_classes=4, dim=12, seed=1)
    config = RunConfig(
        "dgs",
        lambda: MLP(12, (24,), 4, seed=7),
        ds,
        num_workers=2,
        batch_size=16,
        total_iterations=10,
        hyper=Hyper(ratio=0.1, min_sparse_size=0),
        seed=0,
        cluster=ClusterConfig.with_bandwidth(2, 10, compute_mean_s=0.01),
    )
    return SimulatedTrainer(config)
