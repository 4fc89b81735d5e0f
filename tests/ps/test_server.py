"""Parameter server behaviour in both downstream modes."""

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.comm import GradientFrame, ServerService
from repro.compression import encode_sparse
from repro.ps import DiffMessage, GradientMessage, ModelMessage, ParameterServer

SHAPES = OrderedDict([("w", (30,)), ("b", (6,))])


def exchange(srv, msg):
    """One worker↔server round-trip through the comm layer.

    Byte accounting lives in the serve loop (not in ``handle``), so tests
    that assert ``srv.stats`` record each frame the way it does.
    """
    frame = GradientFrame(msg, loss=0.0)
    reply = ServerService(srv)(frame)
    srv.stats.record_upload(frame.nbytes(), frame.dense_nbytes())
    srv.stats.record_download(reply.nbytes(), reply.dense_nbytes())
    return reply.message


def theta0(rng):
    return OrderedDict((n, rng.normal(size=s)) for n, s in SHAPES.items())


def grad_msg(rng, worker=0, scale=1.0):
    payload = OrderedDict()
    for n, s in SHAPES.items():
        arr = rng.normal(size=s) * scale
        arr[np.abs(arr) < 0.8 * scale] = 0.0
        payload[n] = encode_sparse(arr)
    return GradientMessage(worker, payload, 0)


class TestDifferenceMode:
    def test_reply_type(self, rng):
        srv = ParameterServer(theta0(rng), 2, downstream="difference")
        reply = srv.handle(grad_msg(rng))
        assert isinstance(reply, DiffMessage)

    def test_first_download_contains_full_M(self, rng):
        srv = ParameterServer(theta0(rng), 2, downstream="difference")
        msg = grad_msg(rng)
        reply = srv.handle(msg)
        np.testing.assert_allclose(reply.payload["w"].to_dense(), -msg.payload["w"].to_dense())

    def test_staleness_recorded(self, rng):
        srv = ParameterServer(theta0(rng), 2, downstream="difference")
        srv.handle(grad_msg(rng, worker=0))
        srv.handle(grad_msg(rng, worker=1))
        reply = srv.handle(grad_msg(rng, worker=0))
        assert reply.staleness == 1  # worker 1's update landed in between

    def test_stats_accumulate(self, rng):
        srv = ParameterServer(theta0(rng), 1, downstream="difference")
        exchange(srv, grad_msg(rng))
        assert srv.stats.upload_messages == 1
        assert srv.stats.download_messages == 1
        assert srv.stats.upload_bytes > 0

    def test_handle_does_not_account_bytes(self, rng):
        """Accounting is the channel's job: a direct handle() records nothing."""
        srv = ParameterServer(theta0(rng), 1, downstream="difference")
        srv.handle(grad_msg(rng))
        assert srv.stats.upload_messages == 0
        assert srv.stats.download_messages == 0

    def test_secondary_ratio_shrinks_download(self, rng):
        dense_srv = ParameterServer(theta0(rng), 1, downstream="difference")
        sparse_srv = ParameterServer(
            theta0(rng), 1, downstream="difference",
            secondary_ratio=0.05, secondary_min_sparse_size=0,
        )
        # several updates so the difference becomes dense-ish
        for _ in range(8):
            m = grad_msg(rng, scale=2.0)
            exchange(dense_srv, m)
            exchange(sparse_srv, GradientMessage(0, m.payload, 0))
        assert sparse_srv.stats.download_bytes < dense_srv.stats.download_bytes


class TestModelMode:
    def test_reply_is_full_model(self, rng):
        t0 = theta0(rng)
        srv = ParameterServer(t0, 1, downstream="model", dtype=np.float64)
        msg = grad_msg(rng)
        reply = srv.handle(msg)
        assert isinstance(reply, ModelMessage)
        np.testing.assert_allclose(
            reply.payload["w"], t0["w"] - msg.payload["w"].to_dense()
        )

    def test_download_bytes_are_dense(self, rng):
        srv = ParameterServer(theta0(rng), 1, downstream="model")
        exchange(srv, grad_msg(rng))
        assert srv.stats.download_bytes == srv.stats.download_dense_bytes

    def test_invalid_downstream(self, rng):
        with pytest.raises(ValueError):
            ParameterServer(theta0(rng), 1, downstream="nope")


class TestGlobalModel:
    def test_matches_theta0_plus_M(self, rng):
        t0 = theta0(rng)
        srv = ParameterServer(t0, 1, downstream="difference", dtype=np.float64)
        msg = grad_msg(rng)
        srv.handle(msg)
        model = srv.global_model()
        np.testing.assert_allclose(model["w"], t0["w"] - msg.payload["w"].to_dense())

    def test_timestamp(self, rng):
        srv = ParameterServer(theta0(rng), 1, downstream="difference")
        assert srv.timestamp == 0
        srv.handle(grad_msg(rng))
        assert srv.timestamp == 1


class TestThreadSafety:
    def test_concurrent_handles_consistent(self, rng):
        """Total M must equal the sum of all applied updates regardless of
        thread interleaving."""
        srv = ParameterServer(theta0(rng), 4, downstream="difference", dtype=np.float64)
        msgs = [grad_msg(np.random.default_rng(i), worker=i % 4) for i in range(40)]
        expected = np.zeros(SHAPES["w"])
        for m in msgs:
            expected -= m.payload["w"].to_dense()

        def work(chunk):
            for m in chunk:
                srv.handle(m)

        threads = [threading.Thread(target=work, args=(msgs[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert srv.timestamp == 40
        np.testing.assert_allclose(srv.tracker.M["w"], expected, atol=1e-12)
