"""Elastic membership: the join state transition ``v_k ← M_t``.

Eq. 5's invariant (without secondary compression ``v_k == M`` after every
exchange) extends to elastic joins: a worker admitted at server time t
downloads θ_t = θ_0 + M_t, so everything applied so far has by definition
been shipped to it — its ``v_k`` must equal ``M_t`` *bitwise*, in every
server mode (dict / arena, single / sharded), or the next difference
``G = M − v_k`` it receives double-counts history.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.layerops import parameters_of
from repro.core.methods import Hyper, get_method
from repro.exec.common import build_server
from repro.nn import MLP
from repro.ps.membership import WorkerDirectory
from repro.ps.messages import GradientMessage


def _server(num_workers=2, arena=True, num_shards=1, method="dgs"):
    model = MLP(8, (12,), 3, seed=4)
    return build_server(
        get_method(method),
        parameters_of(model),
        num_workers,
        Hyper(lr=0.1, momentum=0.7, ratio=0.25, min_sparse_size=0),
        arena=arena,
        num_shards=num_shards,
    )


def _advance(server, steps=3, rng_seed=9):
    """Apply a few dense gradient updates so M moves away from zero."""
    rng = np.random.default_rng(rng_seed)
    for i in range(steps):
        payload = {
            name: rng.normal(size=np.shape(buf)).astype(np.float64)
            for name, buf in server.global_model().items()
        }
        server.handle(GradientMessage(0, payload, i))


def _tracker_v(server, worker):
    vk = server.tracker.vk(worker)
    M = server.tracker.M
    if hasattr(M, "flat"):  # arena buffers
        return np.array(vk.flat), np.array(M.flat)
    flat = lambda buffers: np.concatenate([np.ravel(b) for b in buffers.values()])
    return flat(vk), flat(M)


@pytest.mark.parametrize("arena", [False, True], ids=["dict", "arena"])
class TestBootstrapInvariant:
    def test_new_worker_vk_equals_Mt_bitwise(self, arena):
        server = _server(num_workers=1, arena=arena)
        _advance(server)
        msg = server.bootstrap_worker(1)  # grows the worker set
        v, M = _tracker_v(server, 1)
        np.testing.assert_array_equal(v, M)
        assert msg.worker_id == 1
        assert msg.server_timestamp == server.timestamp

    def test_rebootstrap_refreshes_stale_vk(self, arena):
        """Reconnect semantics: re-joining refreshes v_k to the live M."""
        server = _server(num_workers=2, arena=arena)
        server.bootstrap_worker(1)
        _advance(server)  # moves M; worker 1's v_k is now stale
        server.bootstrap_worker(1)
        v, M = _tracker_v(server, 1)
        np.testing.assert_array_equal(v, M)

    def test_bootstrap_reply_model_is_theta_t(self, arena):
        server = _server(num_workers=1, arena=arena)
        _advance(server)
        msg = server.bootstrap_worker(1)
        current = server.global_model()
        assert msg.payload.keys() == current.keys()
        for name in current:
            np.testing.assert_array_equal(
                np.asarray(msg.payload[name]), np.asarray(current[name])
            )

    def test_worker_model_after_join_equals_global(self, arena):
        server = _server(num_workers=1, arena=arena)
        _advance(server)
        server.bootstrap_worker(1)
        joined, current = server.worker_model(1), server.global_model()
        for name in current:
            np.testing.assert_array_equal(joined[name], current[name])


class TestShardedBootstrap:
    @pytest.mark.parametrize("arena", [False, True], ids=["dict", "arena"])
    def test_every_shard_vk_equals_its_Mt(self, arena):
        server = _server(num_workers=1, arena=arena, num_shards=2)
        _advance(server)
        server.bootstrap_worker(1)
        for shard in server.shards:
            v, M = _tracker_v(shard, 1)
            np.testing.assert_array_equal(v, M)

    def test_merged_bootstrap_model_is_global(self):
        server = _server(num_workers=1, num_shards=2)
        _advance(server)
        msg = server.bootstrap_worker(1)
        current = server.global_model()
        assert msg.payload.keys() == current.keys()
        for name in current:
            np.testing.assert_array_equal(
                np.asarray(msg.payload[name]), np.asarray(current[name])
            )


class TestModelModeBootstrap:
    def test_asgd_has_no_vk_but_grows_worker_set(self):
        """Model-downstream methods track no v_k; join still admits."""
        server = _server(num_workers=1, method="asgd")
        _advance(server)
        msg = server.bootstrap_worker(3)
        assert server.tracker.num_workers == 4
        current = server.global_model()
        for name in current:
            np.testing.assert_array_equal(
                np.asarray(msg.payload[name]), np.asarray(current[name])
            )


class TestDirectoryLocking:
    def test_directory_never_nests_with_server_lock(self):
        """register() takes the server lock first, then its own — enrolled
        in a LockRegistry, the order must come out acyclic."""
        from repro.analysis.concurrency import LockRegistry

        server = _server(num_workers=1)
        directory = WorkerDirectory(server)
        registry = LockRegistry()
        server.register_lock(registry)
        directory.register_lock(registry)
        directory.register(1)
        directory.deregister(1)
        assert registry.inversions() == []
        assert registry.cycles() == []

    def test_update_counts_come_from_staleness_log(self):
        server = _server(num_workers=2)
        _advance(server, steps=4)  # all four updates from worker 0
        counts = server.worker_update_counts()
        assert counts.get(0) == 4
        assert counts.get(1, 0) == 0
