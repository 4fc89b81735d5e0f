"""Unit tests for the sharded parameter server (front-end + shards).

The structural invariant under test everywhere: a sharded server is the
*same algorithm* as the single-lock server — state partitioned, never
changed — so deterministic update sequences produce bitwise-identical
global models, and the accounting surfaces compose per the documented
semantics (staleness counts sum across shards, state bytes sum back to
the whole model).
"""

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.analysis.concurrency import LockRegistry
from repro.comm.service import ServerService
from repro.comm.frames import GradientFrame
from repro.compression import TopKSparsifier
from repro.core.strategies import SAMomentumStrategy
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, use_tracer
from repro.ps.messages import GradientMessage
from repro.ps.server import ParameterServer
from repro.ps.sharded import ParameterShard, ShardedParameterServer

SHAPES = OrderedDict([("w1", (6, 4)), ("b1", (4,)), ("w2", (4, 3)), ("b2", (3,))])


def _theta0(seed=0):
    rng = np.random.default_rng(seed)
    return OrderedDict((k, rng.normal(size=s)) for k, s in SHAPES.items())


def _update(rng):
    return OrderedDict((k, rng.normal(size=s).astype(np.float64)) for k, s in SHAPES.items())


def _drive(server, num_workers=2, steps=12, seed=3):
    """Deterministic single-threaded update schedule; returns the replies."""
    rng = np.random.default_rng(seed)
    replies = []
    for i in range(steps):
        w = i % num_workers
        replies.append(server.handle(GradientMessage(w, _update(rng), i)))
    return replies


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_global_model_bitwise_matches_unsharded(self, num_shards):
        plain = ParameterServer(_theta0(), 2, downstream="difference")
        sharded = ShardedParameterServer(_theta0(), 2, num_shards, downstream="difference")
        _drive(plain)
        _drive(sharded)
        a, b = plain.global_model(), sharded.global_model()
        assert list(a) == list(b)  # original layer order preserved
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert plain.timestamp == sharded.timestamp
        assert plain.server_state_bytes() == sharded.server_state_bytes()

    def test_replies_merge_in_original_layer_order(self):
        sharded = ShardedParameterServer(_theta0(), 1, 3)
        (reply,) = _drive(sharded, num_workers=1, steps=1)
        assert list(reply.payload) == list(SHAPES)

    def test_model_downstream_mode(self):
        plain = ParameterServer(_theta0(), 2, downstream="model")
        sharded = ShardedParameterServer(_theta0(), 2, 3, downstream="model")
        r_plain = _drive(plain)
        r_sharded = _drive(sharded)
        for a, b in zip(r_plain, r_sharded):
            assert list(a.payload) == list(b.payload)
            for name in a.payload:
                np.testing.assert_array_equal(a.payload[name], b.payload[name])

    def test_staleness_matches_unsharded_on_deterministic_schedule(self):
        plain = ParameterServer(_theta0(), 2)
        sharded = ShardedParameterServer(_theta0(), 2, 2)
        r_plain = _drive(plain)
        r_sharded = _drive(sharded)
        assert [r.staleness for r in r_plain] == [r.staleness for r in r_sharded]
        assert [r.server_timestamp for r in r_plain] == [
            r.server_timestamp for r in r_sharded
        ]

    def test_num_shards_clamped_to_layer_count(self):
        sharded = ShardedParameterServer(_theta0(), 1, 32)
        assert sharded.num_shards == len(SHAPES)
        assert all(shard.tracker.shapes for shard in sharded.shards)


class TestShardedAccounting:
    def test_staleness_counts_sum_across_shards(self):
        """Merged per-worker counts are updates × num_shards; the location
        statistics are unchanged (documented accounting semantics)."""
        plain = ParameterServer(_theta0(), 2)
        sharded = ShardedParameterServer(_theta0(), 2, 3)
        _drive(plain)
        _drive(sharded)
        s_plain = plain.staleness_summary()
        s_sharded = sharded.staleness_summary()
        for w, summary in s_plain["per_worker"].items():
            merged = s_sharded["per_worker"][w]
            assert merged["count"] == summary["count"] * sharded.num_shards
            assert merged["mean"] == summary["mean"]
            assert merged["p50"] == summary["p50"]
        assert s_sharded["p50"] == s_plain["p50"]
        assert sharded.staleness_meter.avg == plain.staleness_meter.avg

    def test_metrics_snapshot_concatenates_shard_labeled_series(self):
        sharded = ShardedParameterServer(_theta0(), 2, 2)
        _drive(sharded)
        records = sharded.metrics.snapshot()
        lock_waits = [
            r for r in records if r["name"] == obs_names.METRIC_SERVER_LOCK_WAIT_S
        ]
        shards_seen = {r["labels"]["shard"] for r in lock_waits}
        assert shards_seen == {"0", "1"}
        # every series from a shard registry carries its shard label
        assert all("shard" in r["labels"] for r in records)

    def test_unsharded_series_carry_no_shard_label(self):
        plain = ParameterServer(_theta0(), 1)
        _drive(plain, num_workers=1, steps=2)
        for record in plain.metrics.snapshot():
            assert "shard" not in record["labels"]

    def test_state_bytes_cached_and_partitioned(self):
        # secondary compression keeps every v_k, so the state's size is fixed
        plain = ParameterServer(_theta0(), 2, secondary_ratio=0.5)
        sharded = ShardedParameterServer(_theta0(), 2, 3, secondary_ratio=0.5)
        before = sharded.server_state_bytes()
        _drive(sharded)
        assert sharded.server_state_bytes() == before == plain.server_state_bytes()
        # per-shard figures are proper partitions, not copies
        assert sum(s.server_state_bytes() for s in sharded.shards) == before


class TestShardRoutingAndLocks:
    def test_handle_shard_touches_only_that_shard(self):
        sharded = ShardedParameterServer(_theta0(), 1, 2)
        rng = np.random.default_rng(0)
        part = OrderedDict(
            (k, rng.normal(size=SHAPES[k])) for k in sharded.partition.layers(1)
        )
        sharded.handle_shard(1, GradientMessage(0, part, 0))
        assert sharded.shards[0].timestamp == 0
        assert sharded.shards[1].timestamp == 1

    def test_server_service_routes_shard_frames(self):
        sharded = ShardedParameterServer(_theta0(), 1, 2)
        service = ServerService(sharded)
        rng = np.random.default_rng(0)
        part = OrderedDict(
            (k, rng.normal(size=SHAPES[k])) for k in sharded.partition.layers(0)
        )
        frame = GradientFrame(GradientMessage(0, part, 0), loss=0.0, shard=0)
        reply = service(frame)
        assert reply.shard == 0
        assert sharded.shards[0].timestamp == 1
        assert sharded.shards[1].timestamp == 0

    def test_register_lock_enrolls_one_lock_per_shard(self):
        sharded = ShardedParameterServer(_theta0(), 1, 3)
        registry = LockRegistry()
        sharded.register_lock(registry)
        assert registry.names == ("ps.shard0", "ps.shard1", "ps.shard2")
        # sequential fan-out never nests shard locks
        _drive(sharded, num_workers=1, steps=4)
        assert registry.inversions() == []

    def test_parameter_shard_inherits_guarded_attrs(self):
        assert ParameterShard.__guarded_attrs__ == ParameterServer.__guarded_attrs__


class TestThreadIsolation:
    """When worker threads share a server, each runs its strategy's
    ``prepare`` and then, under the shard locks, the server's handling of
    its update.  The kernels hold no scratch between calls (each takes its
    chunk buffers per call), so nothing is shared between the threads but
    the server's own state."""

    STEPS = 8

    @staticmethod
    def _setup():
        server = ShardedParameterServer(
            _theta0(), 2, 4, secondary_ratio=0.25, secondary_min_sparse_size=0
        )
        strategies = [
            SAMomentumStrategy(SHAPES, TopKSparsifier(0.25, min_sparse_size=0), 0.7)
            for _ in range(2)
        ]
        rng = np.random.default_rng(3)
        return server, strategies, [_update(rng) for _ in range(TestThreadIsolation.STEPS)]

    @staticmethod
    def _step(server, strategies, grads, i):
        w = i % 2
        return server.handle(GradientMessage(w, strategies[w].prepare(grads[i], 0.1), i))

    def _serial(self):
        server, strategies, grads = self._setup()
        return [self._step(server, strategies, grads, i) for i in range(self.STEPS)], server

    def _threaded(self):
        """Worker ``i % 2`` takes step ``i``, on its own thread; turns are
        handed over so the update order is the serial run's."""
        server, strategies, grads = self._setup()
        turns = [threading.Event() for _ in range(self.STEPS + 1)]
        replies, errors = [None] * self.STEPS, []

        def worker(w):
            try:
                for i in range(w, self.STEPS, 2):
                    assert turns[i].wait(timeout=30)
                    replies[i] = self._step(server, strategies, grads, i)
                    turns[i + 1].set()
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)
                for turn in turns:
                    turn.set()

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        turns[0].set()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return replies, server

    def test_threaded_replies_are_bitwise_the_serial_run(self):
        (serial, s_server), (threaded, t_server) = self._serial(), self._threaded()
        for a, b in zip(serial, threaded):
            assert a.staleness == b.staleness
            for name in SHAPES:
                np.testing.assert_array_equal(a.payload[name].to_dense(), b.payload[name].to_dense())
        a, b = s_server.global_model(), t_server.global_model()
        for name in SHAPES:
            np.testing.assert_array_equal(a[name], b[name])


class TestShardIsolation:
    """Per-shard storage: nothing one shard writes is visible through
    another shard's views."""

    @staticmethod
    def _arena_server():
        return ShardedParameterServer(_theta0(), 1, 4)

    def test_shard_arena_views_never_alias(self):
        shard_layers = [
            [np.asarray(shard.theta0[name]) for name in shard.tracker.shapes]
            for shard in self._arena_server().shards
        ]
        for i, layers in enumerate(shard_layers):
            for other in shard_layers[i + 1 :]:
                for a in layers:
                    for b in other:
                        assert not np.shares_memory(a, b)

    def test_subframe_bytes_sum_to_whole_frame_bytes(self):
        """Splitting adds frame headers, never payload: per-shard sub-frame
        payload bytes sum exactly to the whole-model payload bytes."""
        sharded = ShardedParameterServer(_theta0(), 1, 4)
        payload = _update(np.random.default_rng(0))
        parts = sharded.partition.split(payload)
        whole = GradientMessage(0, payload, 0)
        assert sum(GradientMessage(0, part, 0).nbytes() for part in parts) == whole.nbytes()


class TestShardedProcessBackend:
    def test_sharded_matches_single_shard_bitwise(self, tiny_dataset, tiny_model_factory):
        """One worker makes the process backend deterministic: whole frames
        fanned across 4 shard locks by ``handle`` are the same algorithm as
        the single-lock server."""
        from repro.core.methods import Hyper
        from repro.exec import RunConfig
        from repro.exec.remote import RemoteTrainer

        def run(num_shards):
            config = RunConfig(
                "dgs",
                tiny_model_factory,
                tiny_dataset,
                num_workers=1,
                batch_size=16,
                total_iterations=8,
                hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
                seed=0,
                num_shards=num_shards,
            )
            return RemoteTrainer(config, "pipe").run()

        single, sharded = run(1), run(4)
        assert sharded.errors == single.errors == []
        assert sharded.num_shards == 4
        assert sharded.final_loss == single.final_loss
        assert sharded.loss_vs_step.ys == single.loss_vs_step.ys
        assert sharded.upload_bytes == single.upload_bytes


class TestShardedTelemetry:
    def test_shard_spans_land_on_shard_lanes(self):
        tracer = Tracer()
        sharded = ShardedParameterServer(_theta0(), 1, 2)
        with use_tracer(tracer):
            _drive(sharded, num_workers=1, steps=2)
        records = tracer.records()
        handle_tids = {
            r["tid"] for r in records if r["name"] == obs_names.SERVER_HANDLE
        }
        assert handle_tids == {"shard-0", "shard-1"}
        fanouts = [r for r in records if r["name"] == obs_names.SERVER_FANOUT]
        assert len(fanouts) == 2
        assert all(r["args"]["shards"] == 2 for r in fanouts)
