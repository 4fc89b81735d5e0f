"""RemoteTrainer end-to-end: forked worker processes over pipes and TCP.

Each test forks real worker processes that reach the server over an OS
pipe (``transport="pipe"``, the process backend) or an ephemeral loopback
listener (``transport="tcp"``, the socket backend); the paper's training
loop runs unchanged on top — what is under test here is the deployment
machinery: learning over real bytes, membership accounting, crash →
partial result, mid-run joins, checkpoint cadence.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.methods import Hyper
from repro.exec import RunConfig
from repro.exec.remote import RemoteTrainer

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="fork start method required"
)

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0)


def _trainer(
    tiny_dataset,
    tiny_model_factory,
    method="dgs",
    transport="tcp",
    iterations_per_worker=20,
    **fields,
):
    defaults = dict(num_workers=2, batch_size=16, hyper=HYPER, seed=0)
    defaults.update(fields)
    config = RunConfig(
        method,
        tiny_model_factory,
        tiny_dataset,
        total_iterations=iterations_per_worker * defaults["num_workers"],
        **defaults,
    )
    return RemoteTrainer(config, transport)


# -- pipes (the process backend) -------------------------------------------
def test_process_training_learns(tiny_dataset, tiny_model_factory):
    r = _trainer(
        tiny_dataset, tiny_model_factory, transport="pipe", iterations_per_worker=30
    ).run()
    assert r.backend == "process"
    assert r.total_iterations == 60
    assert r.final_accuracy > 0.7
    assert len(r.loss_vs_step) == 60
    assert r.wire_bytes_up > 0 and r.wire_bytes_down > 0


@pytest.mark.parametrize("method", ["asgd", "gd_async", "dgc_async", "dgs"])
def test_every_method_learns_over_pipes(method, tiny_dataset, tiny_model_factory):
    r = _trainer(
        tiny_dataset, tiny_model_factory, method, transport="pipe",
        num_workers=3, iterations_per_worker=25,
    ).run()
    assert r.final_accuracy > 0.7  # blobs are easy; random is 0.25
    assert r.total_iterations == 3 * 25
    assert r.upload_bytes > 0 and r.download_bytes > 0
    # one loss per applied update, indexed by arrival order
    assert r.loss_vs_step.xs == list(range(1, 76))


def test_loss_curve_x_is_monotone(tiny_dataset, tiny_model_factory):
    r = _trainer(
        tiny_dataset, tiny_model_factory, transport="pipe",
        num_workers=3, iterations_per_worker=15,
    ).run()
    xs = r.loss_vs_step.xs
    assert xs == sorted(xs)
    assert len(xs) == 45


def test_custom_schedule_reaches_the_workers(tiny_dataset, tiny_model_factory):
    from repro.optim import ConstantLR

    def run(**fields):
        return _trainer(
            tiny_dataset, tiny_model_factory, transport="pipe", iterations_per_worker=10,
            **fields,
        ).run()

    assert run(schedule=ConstantLR(1e-9)).final_loss > run().final_loss


def test_worker_exception_reaches_the_result_errors(
    tiny_dataset, tiny_model_factory, monkeypatch
):
    """An exception in a worker process ends only that worker: its close
    frame names the error, and the run returns a partial result."""
    from repro.ps.worker import WorkerNode

    compute_step = WorkerNode.compute_step

    def fail_on_worker_1(node):
        if node.worker_id == 1:
            raise RuntimeError("injected failure")
        return compute_step(node)

    # patched before the fork, so the forked workers inherit it
    monkeypatch.setattr(WorkerNode, "compute_step", fail_on_worker_1)
    result = _trainer(
        tiny_dataset, tiny_model_factory, transport="pipe", iterations_per_worker=5
    ).run()
    assert result.errors == ["worker 1: RuntimeError: injected failure"]
    assert result.total_iterations == 5


def test_process_asgd_model_download(tiny_dataset, tiny_model_factory):
    r = _trainer(
        tiny_dataset, tiny_model_factory, "asgd", transport="pipe", iterations_per_worker=15
    ).run()
    assert r.final_accuracy > 0.6
    # dense downloads dominate the wire
    assert r.wire_bytes_down > r.wire_bytes_up * 0.5


def test_sparse_method_ships_fewer_bytes(tiny_dataset, tiny_model_factory):
    def run(method):
        return _trainer(
            tiny_dataset,
            tiny_model_factory,
            method,
            transport="pipe",
            iterations_per_worker=10,
            hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.02, min_sparse_size=0),
        ).run()

    dense = run("asgd")
    sparse = run("dgs")
    assert sparse.wire_bytes_up < dense.wire_bytes_up / 5


def test_msgd_rejected(tiny_dataset, tiny_model_factory):
    with pytest.raises(KeyError, match="msgd"):
        RemoteTrainer(RunConfig("msgd", tiny_model_factory, tiny_dataset, 2, 16, 10), "pipe")


def test_worker_hard_crash_yields_partial_result(tiny_dataset, tiny_model_factory):
    """A worker hard-killed mid-run (no close frame) must not hang the run."""
    result = _trainer(
        tiny_dataset,
        tiny_model_factory,
        transport="pipe",
        iterations_per_worker=6,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.2, min_sparse_size=0),
        fail_at={1: 2},
    ).run()
    assert result.errors, "the crash must surface in TrainResult.errors"
    assert any("without a close frame" in e for e in result.errors)
    # the survivor finished: more steps than the crashed worker managed,
    # fewer than a clean two-worker run
    assert 6 <= result.total_iterations < 12
    # accounting comes from the surviving worker's close frame only
    assert result.samples_processed == 6 * 16
    assert 0.0 <= result.final_accuracy <= 1.0


def test_clean_run_reports_no_errors(tiny_dataset, tiny_model_factory):
    result = _trainer(
        tiny_dataset,
        tiny_model_factory,
        transport="pipe",
        iterations_per_worker=4,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.2, min_sparse_size=0),
    ).run()
    assert result.errors == []
    assert result.total_iterations == 2 * 4
    assert result.samples_processed == 2 * 4 * 16


# -- TCP (the socket backend) ------------------------------------------------
def test_two_workers_learn_over_tcp(tiny_dataset, tiny_model_factory):
    trainer = _trainer(tiny_dataset, tiny_model_factory, transport="tcp")
    result = trainer.run()
    assert result.backend == "socket"
    assert result.errors == []
    assert result.final_accuracy > 0.9
    assert result.total_iterations == 40
    assert result.samples_processed == 40 * 16
    # every frame crossed a real socket: transport counters are live
    assert result.wire_bytes_up > 0 and result.wire_bytes_down > 0
    snap = trainer.membership.snapshot()
    assert snap["joins"] == 2 and snap["leaves"] == 2
    assert snap["crashes"] == 0 and snap["evictions"] == 0


def test_checkpoint_cadence_writes_file(tmp_path, tiny_dataset, tiny_model_factory):
    path = tmp_path / "run.ckpt"
    result = _trainer(
        tiny_dataset,
        tiny_model_factory,
        transport="tcp",
        checkpoint_every=10,
        checkpoint_path=path,
    ).run()
    assert result.errors == []
    assert path.exists()
    from repro.core.layerops import parameters_of
    from repro.core.methods import get_method
    from repro.exec.common import build_server
    from repro.ps.checkpoint import load_checkpoint

    server = build_server(get_method("dgs"), parameters_of(tiny_model_factory()), 2, HYPER)
    header = load_checkpoint(server, path)
    # the final checkpoint covers the whole run's updates
    assert sum(header["shards"][0]["updates"].values()) == 40
    assert server.timestamp == 40


def test_checkpoint_every_requires_path(tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="checkpoint_path"):
        _trainer(tiny_dataset, tiny_model_factory, checkpoint_every=5)


@pytest.mark.parametrize("every", [0, -1])
def test_checkpoint_every_below_one_is_refused(every, tmp_path, tiny_dataset, tiny_model_factory):
    """A cadence of 0 divided by zero at the first applied update, and a
    negative one checkpointed on every update: both are refused up front."""
    with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
        _trainer(
            tiny_dataset, tiny_model_factory,
            checkpoint_every=every, checkpoint_path=tmp_path / "run.ckpt",
        )


def test_transport_is_pipe_or_tcp_and_bind_is_tcp_only(tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError, match="transport"):
        _trainer(tiny_dataset, tiny_model_factory, transport="udp")
    with pytest.raises(ValueError, match="bind"):
        _trainer(tiny_dataset, tiny_model_factory, transport="pipe", bind=("127.0.0.1", 0))


# -- either transport ------------------------------------------------------
@pytest.mark.parametrize("transport", ["tcp", "pipe"])
def test_worker_crash_yields_partial_result(tiny_dataset, tiny_model_factory, transport):
    """A hard-killed worker (no close frame) must not hang or fail the run."""
    trainer = _trainer(tiny_dataset, tiny_model_factory, transport=transport, fail_at={1: 5})
    result = trainer.run()
    assert len(result.errors) == 1
    assert "without a close frame" in result.errors[0]
    # the survivor finished its full budget; the victim stopped at ~5
    assert 20 <= result.total_iterations < 40
    assert trainer.membership.members[1] == "crash"
    assert trainer.membership.members[0] == "left"


@pytest.mark.parametrize("transport", ["tcp", "pipe"])
def test_mid_run_join_completes_with_correct_accounting(
    tiny_dataset, tiny_model_factory, transport
):
    trainer = _trainer(
        tiny_dataset, tiny_model_factory, transport=transport, join_delay_s={1: 0.3}
    )
    result = trainer.run()
    assert result.errors == []
    assert result.total_iterations == 40
    snap = trainer.membership.snapshot()
    assert snap["joins"] == 2 and snap["leaves"] == 2
    # the delayed worker joined against a server that had already moved
    join_ts = {w: ts for (w, kind, ts) in trainer.membership.events if kind == "join"}
    assert join_ts[0] == 0
    assert join_ts[1] > 0


# -- the deployment CLI (python -m repro.ps) ----------------------------------
def test_deployment_cli_builds_the_socket_backends_state():
    """``serve`` and ``worker`` build their state the way the socket
    backend does, so they get ``RunConfig``'s defaults: production state,
    not the parity oracle."""
    from repro.core.arena import LayerArena
    from repro.core.reference import ReferenceSAMomentumStrategy, ReferenceTracker
    from repro.ps.__main__ import _parser, _serve_trainer, _worker_node

    trainer = _serve_trainer(_parser().parse_args(["serve", "--bind", "127.0.0.1:0"]))
    assert trainer.transport == "tcp"
    assert not isinstance(trainer.server.tracker, ReferenceTracker)
    assert isinstance(trainer.server.tracker.M, LayerArena)

    node = _worker_node(_parser().parse_args(["worker", "--id", "1"]))
    assert node.worker_id == 1
    assert not isinstance(node.strategy, ReferenceSAMomentumStrategy)
    assert isinstance(node.strategy.u, LayerArena)


@pytest.mark.parametrize(
    "argv",
    [
        ["worker", "--id", "2", "--workers", "2"],
        ["worker", "--id", "-1"],
        ["worker", "--id", "0", "--workers", "0"],
        ["worker", "--id", "0", "--iterations", "0"],
        ["worker", "--id", "0", "--batch-size", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--shards", "0"],
        ["serve", "--iterations", "0"],
        ["serve", "--batch-size", "0"],
        ["serve", "--checkpoint-every", "-1", "--checkpoint", "run.ckpt"],
    ],
    ids=" ".join,
)
def test_deployment_cli_rejects_out_of_range_integers(argv, capsys):
    """A worker id outside ``[0, --workers)`` or a count below 1 is a
    usage error (exit 2) at parse time, before any workload is built."""
    from repro.ps.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_deployment_cli_checkpoint_every_zero_is_off():
    """``--checkpoint-every 0`` keeps meaning "no checkpoint"."""
    from repro.ps.__main__ import _parser, _serve_trainer

    args = _parser().parse_args(["serve", "--bind", "127.0.0.1:0", "--checkpoint-every", "0"])
    assert _serve_trainer(args).config.checkpoint_every is None
