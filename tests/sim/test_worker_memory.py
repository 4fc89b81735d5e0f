"""What one simulated worker costs: its replica and its strategy state.

The paper's §5.6.2 accounting counts a DGS worker as one model replica
plus one buffer (SAMomentum's ``u``).  Between steps a worker holds no
gradients (``compute_step`` drops them once ``prepare`` has used them),
no scratch (the kernels take their chunk buffers per call) and no copy
of its data shard (shards are views).
Counted with ``tracemalloc`` over a whole simulated run at several worker
counts: the traced memory still held after the last step may grow, per
added worker, by no more than the replica and the strategy state.
"""

import tracemalloc

import pytest

from repro.core import Hyper
from repro.core.layerops import layer_shapes
from repro.core.methods import get_method
from repro.data import BatchIterator, make_blobs
from repro.nn import MLP
from repro.optim import ConstantLR
from repro.ps.worker import WorkerNode
from repro.exec import RunConfig, SimulatedTrainer
from repro.sim import ClusterConfig

DIM, HIDDEN, CLASSES = 256, (256,), 10
#: 0.2 % of each layer per update keeps staleness · k under the journal's
#: retention bound at 32 workers, so the server holds no per-worker v_k
HYPER = Hyper(lr=0.05, momentum=0.7, ratio=0.002, min_sparse_size=0)


def _model():
    return MLP(DIM, HIDDEN, CLASSES, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(n_samples=2048, num_classes=CLASSES, dim=DIM, seed=0)


def _held(dataset, num_workers):
    """Traced bytes still held after a run of three steps per worker."""
    tracemalloc.start()
    try:
        config = RunConfig(
            "dgs",
            _model,
            dataset,
            num_workers=num_workers,
            batch_size=16,
            total_iterations=3 * num_workers,
            hyper=HYPER,
            cluster=ClusterConfig.with_bandwidth(num_workers, 10, compute_mean_s=0.05),
        )
        trainer = SimulatedTrainer(config)
        trainer.run()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trainer, held


def test_each_simulated_worker_costs_its_replica_and_its_state(dataset):
    runs = {k: _held(dataset, k) for k in (2, 8, 32)}
    trainer, _ = runs[32]
    assert all(held is None for held in trainer.server.tracker._buffers)  # no v_k on the server
    worker = trainer.workers[0]
    replica = sum(p.data.nbytes for p in worker.model.parameters())
    allowance = 1.1 * (replica + worker.worker_state_bytes())
    (_, small), (_, mid), (_, large) = runs[2], runs[8], runs[32]
    for lo, hi, added in ((small, mid, 6), (mid, large, 24), (small, large, 30)):
        per_worker = (hi - lo) / added
        assert per_worker <= allowance, (
            f"{per_worker / replica:.2f} model units per added worker, "
            f"allowed {allowance / replica:.2f}"
        )


def _node(method):
    ds = make_blobs(n_samples=200, num_classes=3, dim=8, seed=0)
    model = MLP(8, (12,), 3, seed=1)
    batches = BatchIterator(ds.x_train, ds.y_train, 16, seed=0)
    hyper = Hyper(ratio=0.1, min_sparse_size=0)
    strategy = get_method(method).make_strategy(layer_shapes(model), hyper)
    return WorkerNode(0, model, batches, strategy, schedule=ConstantLR(0.1))


METHODS = ["asgd", "gd_async", "dgc_async", "dgs"]


@pytest.mark.parametrize("method", METHODS)
def test_no_gradient_outlives_compute_step(method):
    node = _node(method)
    for _ in range(2):
        node.compute_step()
        assert all(p.grad is None for p in node.model.parameters())


@pytest.mark.parametrize("method", METHODS)
def test_no_gradient_outlives_a_failed_prepare(method):
    node = _node(method)

    def boom(grads, lr):
        assert all(g is not None for g in grads.values())
        raise RuntimeError("prepare failed")

    node.strategy.prepare = boom
    with pytest.raises(RuntimeError, match="prepare failed"):
        node.compute_step()
    assert all(p.grad is None for p in node.model.parameters())
