"""The parity oracle (repro.core.reference) and the one production state.

Production strategies and trackers hold LayerArenas (float32 unless a dtype
is given); the oracle holds a dict of independent arrays (float64 unless a
dtype is given), and is reached from a run only through ``arena=False``.
"""

from collections import OrderedDict

import numpy as np

from repro.compression import TopKSparsifier
from repro.core.arena import LayerArena
from repro.core.extensions import TernGradStrategy
from repro.core.methods import Hyper, get_method
from repro.core.reference import (
    ReferenceSAMomentumStrategy,
    ReferenceTracker,
    install_reference_server,
    reference_strategy,
)
from repro.core.strategies import DGCStrategy, SAMomentumStrategy, SparsityRamp
from repro.core.tracker import ModelDifferenceTracker
from repro.data import make_blobs
from repro.data.loader import DataLoader
from repro.exec.common import build_server, build_worker
from repro.nn import MLP
from repro.optim.schedules import ConstantLR

SHAPES = OrderedDict([("w", (3, 4)), ("b", (4,)), ("head", (5,))])


class TestProductionState:
    def test_strategy_and_tracker_hold_float32_arenas(self):
        strategy = SAMomentumStrategy(SHAPES, TopKSparsifier(0.5), 0.9)
        tracker = ModelDifferenceTracker(SHAPES, 2, secondary=TopKSparsifier(0.5))
        for buf in (strategy.u, tracker.M, tracker.v[0]):
            assert isinstance(buf, LayerArena)
            assert buf.dtype == np.float32

    def test_dtype_override(self):
        strategy = SAMomentumStrategy(SHAPES, TopKSparsifier(0.5), 0.9, dtype=np.float64)
        assert strategy.u.dtype == np.float64
        assert ModelDifferenceTracker(SHAPES, 1, dtype=np.float64).M.dtype == np.float64


class TestReferenceBuffers:
    def test_match_historical_allocation(self):
        strategy = ReferenceSAMomentumStrategy(SHAPES, TopKSparsifier(0.5), 0.9)
        for buf in (ReferenceTracker(SHAPES, 1).M, strategy.u):
            assert isinstance(buf, OrderedDict)
            assert all(v.dtype == np.float64 and (v == 0).all() for v in buf.values())

    def test_dtype_override(self):
        strategy = ReferenceSAMomentumStrategy(SHAPES, TopKSparsifier(0.5), 0.9, dtype=np.float32)
        for buf in (ReferenceTracker(SHAPES, 1, dtype=np.float32).M, strategy.u):
            assert all(v.dtype == np.float32 for v in buf.values())

    def test_tracker_keeps_k_dict_buffers_and_no_journal(self):
        tracker = ReferenceTracker(SHAPES, 3)
        assert tracker._journal is None
        assert all(isinstance(vk, OrderedDict) for vk in (tracker.M, *tracker.v))
        assert tracker.server_state_bytes() == 4 * sum(a.nbytes for a in tracker.M.values())


class TestReferenceStrategy:
    def test_twin_keeps_hyper_parameters_and_gets_dict_state(self):
        ramp = SparsityRamp(0.1, warmup_epochs=2)
        strategy = DGCStrategy(SHAPES, 0.1, 0.8, ramp=ramp, clip_norm=2.0, min_sparse_size=3)
        twin = reference_strategy(strategy)
        assert isinstance(twin, DGCStrategy) and type(twin) is not DGCStrategy
        assert (twin.ratio, twin.momentum, twin.ramp, twin.clip_norm, twin.min_sparse_size) == (
            0.1, 0.8, ramp, 2.0, 3,
        )
        assert isinstance(twin.u, OrderedDict) and isinstance(twin.v, OrderedDict)
        assert twin.u["w"].dtype == np.float64
        assert isinstance(strategy.u, LayerArena)  # the original is untouched

    def test_twin_matches_direct_construction(self):
        rng = np.random.default_rng(0)
        sparsifier = TopKSparsifier(0.25, min_sparse_size=0)
        twin = reference_strategy(SAMomentumStrategy(SHAPES, sparsifier, 0.7))
        direct = ReferenceSAMomentumStrategy(SHAPES, sparsifier, 0.7)
        for _ in range(3):
            grads = OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items())
            a, b = twin.prepare(grads, 0.1), direct.prepare(grads, 0.1)
            for name in SHAPES:
                np.testing.assert_array_equal(a[name].indices, b[name].indices)
                np.testing.assert_array_equal(a[name].values, b[name].values)

    def test_stateless_strategy_has_one_implementation(self):
        strategy = TernGradStrategy(SHAPES)
        assert reference_strategy(strategy) is strategy

    def test_exec_builds_the_twin_only_for_arena_false(self):
        loader = DataLoader(make_blobs(n_samples=40, num_classes=3, dim=4, seed=0), 8, seed=0)

        def node(**arena):
            model = MLP(4, (5,), 3, seed=0)
            return build_worker(0, 1, model, loader, get_method("dgs"), Hyper(), ConstantLR(0.1), **arena)

        assert type(node().strategy) is SAMomentumStrategy
        assert isinstance(node().strategy.u, LayerArena)
        assert type(node(arena=False).strategy) is ReferenceSAMomentumStrategy


class TestReferenceServer:
    def test_every_shard_gets_the_oracle(self):
        theta0 = OrderedDict((n, np.ones(s, dtype=np.float32)) for n, s in SHAPES.items())
        server = build_server(get_method("dgs"), theta0, 2, Hyper(), arena=False, num_shards=2)
        for shard in server.shards:
            assert isinstance(shard.tracker, ReferenceTracker)
            assert all(isinstance(a, np.ndarray) for a in shard.theta0.values())
        model = server.global_model()
        for name in SHAPES:
            np.testing.assert_array_equal(model[name], theta0[name])

    def test_install_keeps_the_tracker_configuration(self):
        theta0 = OrderedDict((n, np.zeros(s, dtype=np.float32)) for n, s in SHAPES.items())
        server = build_server(
            get_method("dgs"), theta0, 3, Hyper(), secondary_compression=True, arena_dtype="float32"
        )
        before = server.tracker
        install_reference_server(server, theta0)
        after = server.tracker
        assert isinstance(after, ReferenceTracker)
        assert after.secondary is before.secondary
        assert (after.num_workers, after.track_differences) == (3, True)
        assert after.M["w"].dtype == np.float32
