"""Worker node lifecycle."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import TopKSparsifier, encode_sparse
from repro.core.layerops import layer_shapes, parameters_of
from repro.core.strategies import DenseStrategy, SAMomentumStrategy
from repro.data import BatchIterator, make_blobs
from repro.nn import MLP
from repro.optim import ConstantLR
from repro.ps import DiffMessage, ModelMessage
from repro.ps.worker import WorkerNode


@pytest.fixture
def node():
    ds = make_blobs(n_samples=200, num_classes=3, dim=8, seed=0)
    model = MLP(8, (12,), 3, seed=1)
    batches = BatchIterator(ds.x_train, ds.y_train, 16, seed=0)
    strategy = DenseStrategy(layer_shapes(model))
    return WorkerNode(0, model, batches, strategy, schedule=ConstantLR(0.1))


class TestComputeStep:
    def test_produces_message(self, node):
        msg = node.compute_step()
        assert msg.worker_id == 0
        assert msg.local_iteration == 0
        assert np.isfinite(node.last_loss)

    def test_iteration_counter(self, node):
        node.compute_step()
        node.compute_step()
        assert node.iteration == 2
        assert node.samples_processed == 32

    def test_payload_is_lr_scaled_gradient(self, node):
        msg = node.compute_step()
        # dense strategy: payload = lr * grad; all finite, not all zero
        total = sum(np.abs(v).sum() for v in msg.payload.values())
        assert total > 0

    def test_epoch_progression(self, node):
        per_epoch = node.batches.batches_per_epoch
        for _ in range(per_epoch):
            node.compute_step()
        assert node.epoch == pytest.approx(1.0)


class TestApplyReply:
    def test_diff_reply_adds(self, node):
        before = parameters_of(node.model)
        shapes = layer_shapes(node.model)
        payload = OrderedDict()
        for name, shape in shapes.items():
            delta = np.zeros(shape)
            delta.reshape(-1)[0] = 1.0
            payload[name] = encode_sparse(delta)
        node.apply_reply(DiffMessage(0, payload, 1, 0))
        after = parameters_of(node.model)
        for name in shapes:
            assert after[name].reshape(-1)[0] == pytest.approx(before[name].reshape(-1)[0] + 1.0)

    def test_model_reply_replaces(self, node):
        shapes = layer_shapes(node.model)
        payload = OrderedDict((n, np.full(s, 7.0)) for n, s in shapes.items())
        node.apply_reply(ModelMessage(0, payload, 1, 0))
        for _, p in node.model.named_parameters():
            np.testing.assert_allclose(p.data, 7.0)

    def test_unknown_reply_type(self, node):
        with pytest.raises(TypeError):
            node.apply_reply(object())


class TestState:
    def test_worker_state_bytes_delegates(self, node):
        assert node.worker_state_bytes() == 0  # dense strategy
        shapes = layer_shapes(node.model)
        sam = SAMomentumStrategy(shapes, TopKSparsifier(0.1), 0.7)
        node2 = WorkerNode(1, node.model, node.batches, sam)
        assert node2.worker_state_bytes() == sum(
            int(np.prod(s)) * np.dtype(np.float32).itemsize for s in shapes.values()
        )

    def test_lr_follows_schedule(self, node):
        assert node.current_lr() == 0.1
