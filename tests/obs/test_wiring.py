"""End-to-end wiring: trainers, codec and server emit one unified stream."""

import json

import pytest

from repro.core.methods import Hyper
from repro.data.synthetic import make_blobs
from repro.nn.models.mlp import MLP
from repro.obs import (
    Tracer,
    check_stream,
    summarize,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
)
from repro.obs import names as obs_names
from repro.exec import RunConfig
from repro.exec.remote import RemoteTrainer
from repro.exec.simulated import SimulatedTrainer
from repro.sim.cluster import ClusterConfig


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(n_samples=256, num_classes=4, dim=12, seed=1)


HYPER = Hyper(ratio=0.1, min_sparse_size=0)


def _model():
    return MLP(12, (24,), 4, seed=7)


@pytest.fixture(scope="module")
def process_run(dataset):
    """One traced 2-worker process run shared by the assertions below."""
    tracer = Tracer()
    config = RunConfig(
        "dgs",
        _model,
        dataset,
        num_workers=2,
        batch_size=16,
        total_iterations=2 * 4,
        hyper=HYPER,
        seed=0,
    )
    trainer = RemoteTrainer(config, "pipe")
    with use_tracer(tracer):
        result = trainer.run()
    return tracer, trainer, result


@pytest.fixture(scope="module")
def sim_run(dataset):
    tracer = Tracer()
    config = RunConfig(
        "dgs",
        _model,
        dataset,
        num_workers=2,
        batch_size=16,
        total_iterations=8,
        hyper=HYPER,
        seed=0,
        cluster=ClusterConfig.with_bandwidth(2, 10, compute_mean_s=0.01),
    )
    trainer = SimulatedTrainer(config)
    with use_tracer(tracer):
        result = trainer.run()
    return tracer, trainer, result


class TestProcessWiring:
    def test_all_three_layers_present(self, process_run):
        tracer, _, _ = process_run
        cats = {r["cat"] for r in tracer.records()}
        # worker loop + compute_step's layers + server + tracker = all layers
        assert {"worker", "data", "nn", "strategy", "server", "tracker"} <= cats

    def test_spans_per_worker_process(self, process_run):
        tracer, _, _ = process_run
        steps = [r for r in tracer.records() if r["name"] == "worker.step"]
        assert len(steps) == 2 * 4
        assert {r["proc"] for r in steps} == {"worker-0", "worker-1"}

    def test_stream_and_chrome_trace_valid(self, process_run):
        tracer, _, _ = process_run
        records = tracer.records()
        assert check_stream(records) == []
        trace = to_chrome_trace(records)
        assert validate_chrome_trace(trace) == []

    def test_server_span_bytes_match_compression_stats(self, process_run):
        """`summary` bytes tie back to CompressionStats totals."""
        tracer, trainer, result = process_run
        handle = [r for r in tracer.records() if r["name"] == "server.handle"]
        up = sum(r["args"]["up_bytes"] for r in handle)
        down = sum(r["args"]["down_bytes"] for r in handle)
        assert up == result.upload_bytes == trainer.server.stats.upload_bytes
        assert down == result.download_bytes == trainer.server.stats.download_bytes
        rows = {(r["domain"], r["phase"]): r for r in summarize(tracer.records())}
        assert rows[("wall", "server")]["bytes"] == up + down

    def test_lock_meters_populated(self, process_run):
        tracer, trainer, _ = process_run
        server = trainer.server
        assert server.lock_wait_meter.count == 8
        assert server.lock_hold_meter.count == 8
        assert server.lock_hold_meter.avg > 0
        per_worker = {
            r["labels"]["worker"]: r
            for r in server.metrics.snapshot()
            if r["name"] == obs_names.METRIC_SERVER_LOCK_WAIT_S
        }
        assert set(per_worker) == {"0", "1"}
        assert all(r["count"] == 4 for r in per_worker.values())
        assert sum(r["sum"] for r in per_worker.values()) == pytest.approx(
            server.lock_wait_meter.total
        )
        waits = [r for r in tracer.records() if r["name"] == "server.lock_wait"]
        assert len(waits) == 8

    def test_handle_span_outside_lock_wait(self, process_run):
        tracer, _, _ = process_run
        spans = tracer.records()
        waits = sorted(
            (r for r in spans if r["name"] == "server.lock_wait"), key=lambda r: r["ts"]
        )
        handles = sorted(
            (r for r in spans if r["name"] == "server.handle"), key=lambda r: r["ts"]
        )
        for wait, handle in zip(waits, handles):
            # handle starts where the lock was acquired (wait end)
            assert handle["ts"] == pytest.approx(wait["ts"] + wait["dur"], abs=1e-6)


class TestSimWiring:
    def test_virtual_spans_emitted(self, sim_run):
        tracer, _, _ = sim_run
        virt = [r for r in tracer.records() if r["domain"] == "virtual"]
        names = {r["name"] for r in virt}
        assert {"worker.compute", "comm.send", "server.handle", "comm.recv"} <= names

    def test_virtual_bytes_match_result(self, sim_run):
        tracer, _, result = sim_run
        virt = [r for r in tracer.records() if r["domain"] == "virtual"]
        up = sum(r["args"].get("bytes", 0) for r in virt if r["name"] == "comm.send")
        down = sum(
            r["args"].get("bytes", 0) for r in virt if r["name"] == "comm.recv"
        )
        assert up == result.upload_bytes
        assert down == result.download_bytes

    def test_virtual_timeline_consistent(self, sim_run):
        tracer, _, _ = sim_run
        virt = [r for r in tracer.records() if r["domain"] == "virtual"]
        # spans live on the virtual clock: all inside the simulated makespan
        horizon = max(r["ts"] + r["dur"] for r in virt)
        assert all(r["ts"] >= 0 for r in virt)
        assert horizon > 0

    def test_hot_path_spans_are_wall_domain(self, sim_run):
        tracer, _, _ = sim_run
        hot = [r for r in tracer.records() if r["cat"] in ("nn", "strategy")]
        assert hot and all(r["domain"] == "wall" for r in hot)

    def test_combined_trace_valid_with_both_domains(self, sim_run):
        tracer, _, _ = sim_run
        records = tracer.records()
        assert check_stream(records) == []
        trace = to_chrome_trace(records)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}


class TestCli:
    def test_convert_and_summary_roundtrip(self, process_run, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer, _, _ = process_run
        jsonl = tmp_path / "run.jsonl"
        tracer.dump_jsonl(jsonl, meta={"kind": "test"})
        out = tmp_path / "trace.json"
        assert main(["convert", str(jsonl), str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        assert main(["summary", str(jsonl)]) == 0
        text = capsys.readouterr().out
        assert "per-phase span totals" in text
        assert main(["top", str(jsonl), "-n", "5"]) == 0

    def test_convert_rejects_bad_stream(self, tmp_path):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": "x"}\n')
        assert main(["convert", str(bad), str(tmp_path / "o.json")]) == 1


def test_run_cli_trace_flag(tmp_path, capsys):
    """python -m repro run <exp> --fast --trace writes a valid Chrome trace."""
    from repro.__main__ import main

    out = tmp_path / "run-trace.json"
    assert main(["run", "memory", "--fast", "--trace", str(out)]) == 0
    capsys.readouterr()
    trace = json.loads(out.read_text())
    assert validate_chrome_trace(trace) == []
