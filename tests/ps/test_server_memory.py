"""What the server process holds, counted in units of the model under test.

§5.6.2: a parameter server holds ``M``, θ0 and, for DGS, what stands in
for the per-worker ``v_k``; for ASGD, ``M`` alone.  The remote trainer's
server side, over either transport, adds exactly one model more, the
evaluation scratch the reference model doubles as.  Nothing else
model-sized may be resident after construction: no dead difference
scratch for ASGD, no θ0 snapshot beside the server's own, no copy saved
around the final evaluation.

Also here: the report path (``summarize_staleness``) never imports
``numpy.ma``, which ``np.percentile`` pulls in through ``np.unique``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.compression import TopKSparsifier
from repro.core.arena import LayerArena
from repro.core.layerops import add_payload, layer_shapes, parameters_of
from repro.core.methods import Hyper
from repro.core.strategies import SAMomentumStrategy
from repro.core.tracker import ModelDifferenceTracker
from repro.data import make_blobs
from repro.data.loader import DataLoader
from repro.exec import RunConfig
from repro.exec.common import (
    build_server,
    build_workers,
    resolve_method,
    resolve_schedule,
)
from repro.metrics.evaluation import evaluate_model, evaluate_params
from repro.nn import MLP
from repro.exec.remote import RemoteTrainer
from repro.exec.simulated import SimulatedTrainer
from repro.exec.sync import SynchronousTrainer
from repro.ps.server import summarize_staleness
from repro.ps.worker import WorkerNode
from repro.sim.cluster import ClusterConfig


def _factory():
    return MLP(64, (512, 256), 10, seed=3)  # 167 178 parameters, 669 kB


UNIT = sum(p.data.nbytes for _, p in _factory().named_parameters())
HYPER = Hyper(lr=0.05)


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(256, num_classes=10, dim=64, seed=1)


# -- the tracker's scratch ------------------------------------------------
class TestDifferenceScratch:
    shapes = OrderedDict([("w", (64, 32)), ("b", (32,))])

    def test_asgd_tracker_has_no_difference_scratch(self):
        tracker = ModelDifferenceTracker(self.shapes, 2, track_differences=False)
        assert tracker._diff is None
        assert tracker.server_state_bytes() == tracker.M.flat.nbytes

    def test_dgs_tracker_keeps_scratch_only_under_secondary_compression(self):
        """The journal path scans into per-layer temporaries; only Eq. 6,
        whose live ``v_k`` must survive the scan, keeps a difference arena."""
        journal = ModelDifferenceTracker(self.shapes, 2)
        assert journal._diff is None
        assert journal.server_state_bytes() == journal.M.flat.nbytes
        dual = ModelDifferenceTracker(self.shapes, 2, secondary=TopKSparsifier(0.1))
        assert isinstance(dual._diff, LayerArena)
        assert dual._diff.same_layout(dual.M)

    def test_exchange_allocates_nothing_of_a_layers_size(self):
        """SAMomentum's ``prepare`` and a journal-path reply on the
        benchmark MLP's 786 432-element layer: every transient is a chunk
        buffer or O(k), none as large as the layer (3 MiB)."""
        shapes = OrderedDict([("w", (768, 1024))])
        layer_bytes = 768 * 1024 * 4
        rng = np.random.default_rng(0)
        strategy = SAMomentumStrategy(shapes, TopKSparsifier(0.01, min_sparse_size=0), 0.7)
        tracker = ModelDifferenceTracker(shapes, 2)
        grads = [OrderedDict(w=rng.normal(size=(768, 1024)).astype(np.float32)) for _ in range(3)]
        peaks = []
        tracemalloc.start()
        try:
            for step, g in enumerate(grads):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                update = strategy.prepare(g, 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                tracker.apply_update(update)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                reply = tracker.model_difference(step % 2)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert tracker._buffers == [None, None]  # the journal answered every reply
        assert 7865 < reply["w"].nnz <= 2 * 7865  # worker 1 was owed two updates
        assert max(peaks) < layer_bytes // 2, [p / layer_bytes for p in peaks]


# -- the trainers' server side ---------------------------------------------
def _config(dataset, method="asgd", **fields):
    return RunConfig(
        method,
        _factory,
        dataset,
        num_workers=2,
        batch_size=16,
        total_iterations=2 * 6,
        hyper=HYPER,
        seed=0,
        **fields,
    )


@pytest.mark.parametrize("transport", ["tcp", "pipe"])
class TestServerProcessHolds:
    def _traced(self, transport, dataset):
        """(trainer, units after construction, units of run()'s peak over
        that, result); imports are warmed by a first construction."""
        RemoteTrainer(_config(dataset), transport)
        tracemalloc.start()
        try:
            trainer = RemoteTrainer(_config(dataset), transport)
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = trainer.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return trainer, built / UNIT, (peak - built) / UNIT, result

    def test_asgd_server_holds_theta0_m_and_the_evaluation_model(self, transport, dataset):
        """θ0 arena, ``M`` and ``eval_model``: three models (five before
        θ0 was read through views and ASGD dropped the difference scratch),
        plus under 0.2 of one in meters, registries and Python objects.
        ``run()`` adds at most 4.5 at its peak: the upload frame, θ0 + M
        and the reply frame of one exchange, or the final θ0 + M."""
        trainer, built, run_peak, result = self._traced(transport, dataset)
        assert result.errors == []
        assert built <= 3.2, f"constructed server side holds {built:.2f} models"
        assert run_peak <= 4.5, f"run() peaked {run_peak:.2f} models over construction"

    def test_final_loss_is_bitwise_evaluate_params(self, transport, dataset):
        """Evaluating θ0 + M assigned into the scratch model gives what
        ``evaluate_params`` gives with θ0 + M's arrays bound as the
        parameters: the same numbers, to the bit."""
        trainer = RemoteTrainer(_config(dataset), transport)
        result = trainer.run()
        acc, loss = evaluate_params(
            _factory(), trainer.server.global_model(), dataset.x_val, dataset.y_val
        )
        assert result.final_loss == loss and result.final_accuracy == acc
        for name, p in trainer.eval_model.named_parameters():
            np.testing.assert_array_equal(p.data, trainer.server.global_model()[name])


def test_engines_receive_theta0_as_read_only_views(dataset, monkeypatch):
    """No engine snapshots θ0: what reaches the server is a read-only view
    of the reference model, which the server copies into its own arena."""
    seen = []
    import repro.exec.common as common

    real = common.build_server

    def spy(method, theta0, *args, **kwargs):
        seen.append(theta0)
        return real(method, theta0, *args, **kwargs)

    for module in ("repro.exec.remote", "repro.exec.simulated"):
        monkeypatch.setattr(f"{module}.build_server", spy)
    RemoteTrainer(_config(dataset), "tcp")
    RemoteTrainer(_config(dataset), "pipe")
    SimulatedTrainer(
        RunConfig(
            "asgd", _factory, dataset, num_workers=2, batch_size=16, total_iterations=4,
            hyper=HYPER, cluster=ClusterConfig(num_workers=2),
        )
    )
    assert len(seen) == 3
    for theta0 in seen:
        for arr in theta0.values():
            assert not arr.flags.writeable and arr.base is not None


# -- engines whose results must not move -----------------------------------
def _sequential_oracle(dataset, iterations):
    """One worker against the server, built the way the engines did before
    θ0 became views: θ0 and the evaluation model are separate copies."""
    method = resolve_method("dgs")
    server = build_server(method, parameters_of(_factory()), 1, HYPER)
    loader = DataLoader(dataset, 16, seed=5)
    (node,) = build_workers(
        1, _factory, loader, method, HYPER, resolve_schedule(None, HYPER),
        parameters_of(_factory()),
    )
    losses = []
    for _ in range(iterations):
        node.apply_reply(server.handle(node.compute_step()))
        losses.append(node.last_loss)
    acc, loss = evaluate_params(_factory(), server.global_model(), dataset.x_val, dataset.y_val)
    return losses, acc, loss


def test_remote_trainer_is_bitwise_the_sequential_oracle(dataset):
    """With one worker the remote engine is deterministic: the join
    handshake's θ_t, the float32 wire and the reference model doubling as
    evaluation scratch change nothing."""
    trainer = RemoteTrainer(
        RunConfig(
            "dgs", _factory, dataset, num_workers=1, batch_size=16, total_iterations=12,
            hyper=HYPER, seed=5,
        ),
        "pipe",
    )
    result = trainer.run()
    losses, acc, loss = _sequential_oracle(dataset, 12)
    assert list(result.loss_vs_step.ys) == losses
    assert (result.final_accuracy, result.final_loss) == (acc, loss)


def test_sync_trainer_is_bitwise_the_barrier_oracle(dataset):
    """SSGD's one model, read for its shapes only, trains exactly as two
    workers summing their updates into it each round (Eq. 7)."""
    cluster = ClusterConfig(num_workers=2)
    result = SynchronousTrainer(
        RunConfig(
            "dgs", _factory, dataset, num_workers=2, batch_size=16, total_iterations=8 * 2,
            hyper=HYPER, seed=5, cluster=cluster,
        )
    ).run()

    method = resolve_method("dgs")
    model = _factory()
    shapes = layer_shapes(model)
    loader = DataLoader(dataset, 16, seed=5)
    workers = [
        WorkerNode(
            w, model, loader.worker_iterator(w, 2),
            method.make_strategy(shapes, HYPER),
            schedule=resolve_schedule(None, HYPER),
        )
        for w in range(2)
    ]
    agg = LayerArena(shapes, dtype=np.float32)
    params = dict(model.named_parameters())
    for _ in range(8):
        msgs = [node.compute_step() for node in workers]
        agg.zero_()
        for msg in msgs:
            agg.add_payload(msg.payload)
        add_payload(params, agg, scale=-1.0)
    acc, loss = evaluate_model(model, dataset.x_val, dataset.y_val)
    assert (result.final_accuracy, result.final_loss) == (acc, loss)


# -- the report path -------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=400))
def test_staleness_percentiles_are_bitwise_numpys(values):
    summary = summarize_staleness({0: values})
    p50, p99 = np.percentile(np.asarray(values), [50, 99])
    assert summary["p50"] == float(p50) and summary["p99"] == float(p99)
    assert summary["per_worker"][0]["p50"] == float(p50)
    assert summary["per_worker"][0]["p99"] == float(p99)


_NO_MA_SCRIPT = """
import sys
from repro.core.methods import Hyper
from repro.core.strategies import SAMomentumStrategy
from repro.data import make_blobs
from repro.exec import RunConfig, Trainer
from repro.nn import MLP

dataset = make_blobs(200, num_classes=4, dim=8, seed=1)
for backend in ("socket", "simulated"):
    config = RunConfig(
        method="asgd", model_factory=lambda: MLP(8, (16,), 4, seed=3), dataset=dataset,
        num_workers=2, batch_size=8, total_iterations=8, hyper=Hyper(lr=0.05),
    )
    result = Trainer(config, backend=backend).run()
    assert result.staleness_p99 == result.staleness_p99, backend  # measured, not NaN
print("numpy.ma" in sys.modules)
"""


def test_a_run_and_its_report_leave_numpy_ma_unimported():
    """``np.percentile`` → ``np.unique`` → ``import numpy.ma``: +2.2 MiB
    RSS in a bare interpreter.  A socket run and a simulated run, report
    included, must not pay it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MA_SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"
