"""Distributed-state checkpointing: tracker and strategy snapshots."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import TopKSparsifier, encode_sparse
from repro.core import Hyper, get_method
from repro.core.strategies import (
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
)
from repro.core.tracker import ModelDifferenceTracker

SHAPES = OrderedDict([("w", (24,)), ("b", (6,))])
HYPER = Hyper(ratio=0.2, momentum=0.7, min_sparse_size=0)


def random_update(rng):
    upd = OrderedDict()
    for n, s in SHAPES.items():
        arr = rng.normal(size=s)
        arr[np.abs(arr) < 0.6] = 0.0
        upd[n] = encode_sparse(arr)
    return upd


class TestTrackerCheckpoint:
    def test_roundtrip_restores_everything(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 2)
        for i in range(6):
            tr.apply_update(random_update(rng))
            if i % 2:
                tr.model_difference(i % 2)
        state = tr.state_dict()

        fresh = ModelDifferenceTracker(SHAPES, 2)
        fresh.load_state_dict(state)
        assert fresh.t == tr.t and fresh.prev == tr.prev
        for n in SHAPES:
            np.testing.assert_array_equal(fresh.M[n], tr.M[n])
            np.testing.assert_array_equal(fresh.vk(0)[n], tr.vk(0)[n])

    def test_restored_tracker_continues_identically(self, rng):
        """Same update stream after restore → identical G as uninterrupted."""
        stream = [random_update(np.random.default_rng(100 + i)) for i in range(8)]
        tr_full = ModelDifferenceTracker(SHAPES, 2)
        for upd in stream[:4]:
            tr_full.apply_update(upd)
        tr_full.model_difference(0)
        snapshot = tr_full.state_dict()

        restored = ModelDifferenceTracker(SHAPES, 2)
        restored.load_state_dict(snapshot)
        for upd in stream[4:]:
            tr_full.apply_update(upd)
            restored.apply_update(upd)
        g_full = tr_full.model_difference(1)
        g_rest = restored.model_difference(1)
        for n in SHAPES:
            np.testing.assert_array_equal(g_full[n].to_dense(), g_rest[n].to_dense())

    def test_worker_count_mismatch_rejected(self, rng):
        tr = ModelDifferenceTracker(SHAPES, 2)
        state = tr.state_dict()
        other = ModelDifferenceTracker(SHAPES, 3)
        with pytest.raises(ValueError):
            other.load_state_dict(state)

    def test_npz_persistable(self, rng, tmp_path):
        tr = ModelDifferenceTracker(SHAPES, 1)
        tr.apply_update(random_update(rng))
        path = tmp_path / "server.npz"
        np.savez(path, **tr.state_dict())
        with np.load(path) as data:
            restored = ModelDifferenceTracker(SHAPES, 1)
            restored.load_state_dict(dict(data))
        np.testing.assert_array_equal(restored.M["w"], tr.M["w"])


class TestStrategyCheckpoint:
    @pytest.mark.parametrize("name", ["gd_async", "dgc_async", "dgs"])
    def test_roundtrip_and_identical_continuation(self, name, rng):
        spec = get_method(name)
        a = spec.make_strategy(SHAPES, HYPER)
        grads = [
            OrderedDict((n, np.random.default_rng(50 + i).normal(size=s)) for n, s in SHAPES.items())
            for i in range(8)
        ]
        for g in grads[:4]:
            a.prepare(g, 0.1)
        state = a.state_dict()

        b = spec.make_strategy(SHAPES, HYPER)
        b.load_state_dict(state)
        if hasattr(a, "iteration"):
            b.iteration = a.iteration
        for g in grads[4:]:
            out_a = a.prepare(g, 0.1)
            out_b = b.prepare(g, 0.1)
            for n in SHAPES:
                np.testing.assert_array_equal(out_a[n].to_dense(), out_b[n].to_dense())

    def test_dense_strategy_empty_state(self):
        strat = get_method("asgd").make_strategy(SHAPES, HYPER)
        assert strat.state_dict() == {}
        strat.load_state_dict({})  # no-op, no error

    def test_buffers_are_copies(self, rng):
        strat = SAMomentumStrategy(SHAPES, TopKSparsifier(0.2, min_sparse_size=0), 0.7)
        strat.prepare(OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items()), 0.1)
        state = strat.state_dict()
        state["u/w"][...] = 999.0
        assert not np.allclose(strat.u["w"], 999.0)
