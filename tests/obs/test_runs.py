"""Run manifests, health gating, and cross-backend telemetry equivalence."""

import json
import math

import pytest

from repro.core.methods import Hyper
from repro.data.synthetic import make_blobs
from repro.exec import RunConfig, train
from repro.nn.models.mlp import MLP
from repro.obs import (
    HealthSpec,
    HealthViolation,
    Tracer,
    evaluate_health,
    git_sha,
    load_manifest,
    new_run_id,
    quantile_from_counts,
    render_compare,
    render_report,
    use_tracer,
    validate_chrome_trace,
    worker_skew_s,
    write_run_dir,
)
from repro.obs import names as obs_names


# ----------------------------------------------------------------------
# quantile_from_counts — the health checker's histogram fallback
# ----------------------------------------------------------------------
class TestQuantileFromCounts:
    def test_empty_is_nan(self):
        assert math.isnan(quantile_from_counts((1.0, 2.0), (0, 0, 0), 0.5))

    def test_single_bucket_interpolates(self):
        # all 10 observations in [0, 1): p50 lands mid-bucket
        q = quantile_from_counts((1.0, 2.0), (10, 0, 0), 0.5)
        assert 0.0 <= q <= 1.0

    def test_monotone_in_q(self):
        buckets, counts = (1.0, 2.0, 4.0), (5, 3, 2, 1)
        qs = [quantile_from_counts(buckets, counts, q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        assert quantile_from_counts((1.0, 2.0), (0, 0, 5), 0.99) == 2.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            quantile_from_counts((1.0,), (1, 0), 1.5)


# ----------------------------------------------------------------------
# Manifest plumbing
# ----------------------------------------------------------------------
def test_new_run_id_is_unique_and_sortable():
    a, b = new_run_id(0.0), new_run_id(0.0)
    assert a != b
    assert a.startswith("19700101-000000-")


def test_git_sha_in_this_repo():
    sha = git_sha()
    assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))


def _span(worker, ts, dur, proc=None):
    rec = {
        "type": "span",
        "name": obs_names.WORKER_STEP,
        "cat": "worker",
        "ts": ts,
        "dur": dur,
        "pid": 0,
        "tid": f"w{worker}",
        "domain": "wall",
        "args": {"worker": worker},
    }
    if proc is not None:
        rec["proc"] = proc
    return rec


class TestWorkerSkew:
    def test_spread_of_last_span_ends(self):
        records = [_span(0, 0.0, 1.0), _span(0, 5.0, 1.0), _span(1, 0.0, 2.5)]
        assert worker_skew_s(records) == pytest.approx(6.0 - 2.5)

    def test_single_worker_is_none(self):
        assert worker_skew_s([_span(0, 0.0, 1.0)]) is None

    def test_ignores_non_wall_and_non_span(self):
        virt = dict(_span(1, 100.0, 1.0), domain="virtual")
        assert worker_skew_s([_span(0, 0.0, 1.0), virt, {"type": "metric"}]) is None

    def test_simulated_run_measures_virtual_skew(self, tmp_path):
        """On the simulator the manifest's skew is the spread of the
        workers' last *virtual* span ends, not of the wall-clock spans the
        simulator process also emits while it computes."""
        tracer = Tracer()
        config = RunConfig(
            "dgs",
            lambda: MLP(8, (16,), 3, seed=5),
            make_blobs(n_samples=128, num_classes=3, dim=8, seed=2),
            num_workers=2,
            batch_size=16,
            total_iterations=8,
            hyper=Hyper(ratio=0.1, min_sparse_size=0),
            seed=0,
        )
        with use_tracer(tracer):
            result = train(config, backend="simulated")
        records = tracer.records()
        last_end: "dict[int, float]" = {}
        for r in records:
            if r["type"] == "span" and r["domain"] == "virtual":
                worker = r.get("args", {}).get("worker")
                if isinstance(worker, int):
                    last_end[worker] = max(last_end.get(worker, 0.0), r["ts"] + r["dur"])
        assert set(last_end) == {0, 1}
        run_dir = write_run_dir(tmp_path, result, run_id="sim", records=records)
        assert load_manifest(run_dir)["worker_skew_s"] == pytest.approx(
            max(last_end.values()) - min(last_end.values())
        )


RESULT = {
    "backend": "process",
    "method": "dgs",
    "num_workers": 2,
    "final_loss": 0.5,
    "samples_processed": 1000,
    "makespan_s": 2.0,
    "staleness_p99": 3.0,
    "metrics": [
        {
            "type": "metric",
            "name": obs_names.METRIC_SERVER_STALENESS,
            "kind": "histogram",
            "buckets": [1.0, 2.0, 4.0],
            "counts": [3, 2, 1, 0],
            "labels": {"worker": 0},
        }
    ],
}


class TestWriteAndLoad:
    def test_untraced_round_trip(self, tmp_path):
        run_dir = write_run_dir(tmp_path, dict(RESULT), run_id="r1", config={"seed": 0})
        manifest = load_manifest(run_dir)
        assert manifest["run_id"] == "r1"
        assert manifest["backend"] == "process"
        assert manifest["config"] == {"seed": 0}
        assert manifest["result"]["final_loss"] == 0.5
        assert manifest["worker_skew_s"] is None
        assert manifest["files"]["trace"] is None
        metrics = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert metrics == RESULT["metrics"]

    def test_traced_run_writes_valid_chrome_trace(self, tmp_path):
        records = [_span(0, 0.0, 1.0, proc="worker-0"), _span(1, 0.0, 1.5, proc="worker-1")]
        run_dir = write_run_dir(tmp_path, dict(RESULT), run_id="r2", records=records)
        manifest = load_manifest(run_dir)
        assert manifest["worker_skew_s"] == pytest.approx(0.5)
        trace = json.loads((run_dir / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []

    def test_duck_typed_result_object(self, tmp_path):
        class R:
            def to_dict(self):
                return dict(RESULT)

        manifest = load_manifest(write_run_dir(tmp_path, R(), run_id="r3"))
        assert manifest["method"] == "dgs"

    def test_rejects_unresultlike_object(self, tmp_path):
        with pytest.raises(TypeError):
            write_run_dir(tmp_path, object())

    def test_manifest_with_a_config_key_the_program_dropped_still_loads(self, tmp_path):
        # runs/ directories outlive RunConfig fields: one written while the
        # per-shard serve threads existed still reports and compares
        retired = "shard" + "_parallel"
        old = write_run_dir(
            tmp_path, dict(RESULT), run_id="old", config={"seed": 0, retired: True}
        )
        manifest = load_manifest(old)
        assert manifest["config"][retired] is True
        assert "old" in render_report(manifest)
        assert "final_loss" in render_compare(manifest, _manifest(tmp_path, run_id="new"))

    def test_extra_meta_lands_in_manifest(self, tmp_path):
        run_dir = write_run_dir(tmp_path, dict(RESULT), run_id="r4", extra_meta={"bench": "x"})
        assert load_manifest(run_dir)["bench"] == "x"


# ----------------------------------------------------------------------
# Health gating
# ----------------------------------------------------------------------
def _manifest(tmp_path, result=None, **kwargs):
    return load_manifest(write_run_dir(tmp_path, result or dict(RESULT), **kwargs))


class TestHealthSpec:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown HealthSpec"):
            HealthSpec.from_dict({"max_staleness_p99": 1, "max_latency": 2})

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"max_staleness_p99": 4.5}')
        assert HealthSpec.from_file(path) == HealthSpec(max_staleness_p99=4.5)

    def test_healthy_run_has_no_violations(self, tmp_path):
        spec = HealthSpec(max_staleness_p99=8.0, min_samples_per_sec=10.0)
        assert evaluate_health(_manifest(tmp_path), spec) == []

    def test_staleness_violation(self, tmp_path):
        violations = evaluate_health(_manifest(tmp_path), HealthSpec(max_staleness_p99=0.5))
        assert [v.check for v in violations] == ["max_staleness_p99"]
        assert violations[0].observed == 3.0
        assert "0.5" in str(violations[0])

    def test_staleness_falls_back_to_histogram_estimate(self, tmp_path):
        result = dict(RESULT, staleness_p99=float("nan"))
        violations = evaluate_health(
            _manifest(tmp_path, result), HealthSpec(max_staleness_p99=0.5)
        )
        assert len(violations) == 1
        # interpolated from the bucketed series, not the (NaN) exact value
        assert 0.5 < violations[0].observed <= 4.0

    def test_missing_staleness_is_a_violation(self, tmp_path):
        result = dict(RESULT, staleness_p99=float("nan"), metrics=[])
        violations = evaluate_health(
            _manifest(tmp_path, result), HealthSpec(max_staleness_p99=8.0)
        )
        assert len(violations) == 1 and math.isnan(violations[0].observed)

    def test_throughput_violation(self, tmp_path):
        violations = evaluate_health(
            _manifest(tmp_path), HealthSpec(min_samples_per_sec=1e9)
        )
        assert [v.check for v in violations] == ["min_samples_per_sec"]
        assert violations[0].observed == pytest.approx(500.0)

    def test_skew_skipped_when_untraced(self, tmp_path):
        # no trace ⇒ skew unknowable ⇒ the check is skipped, not failed
        spec = HealthSpec(max_worker_skew_s=0.0)
        assert evaluate_health(_manifest(tmp_path), spec) == []

    def test_skew_violation_when_traced(self, tmp_path):
        records = [_span(0, 0.0, 1.0), _span(1, 0.0, 9.0)]
        manifest = _manifest(tmp_path, records=records)
        violations = evaluate_health(manifest, HealthSpec(max_worker_skew_s=1.0))
        assert [v.check for v in violations] == ["max_worker_skew_s"]

    def test_violation_str_is_readable(self):
        v = HealthViolation("max_staleness_p99", 2.0, 5.0, "detail here")
        assert "observed 5" in str(v) and "limit 2" in str(v) and "detail here" in str(v)


class TestReports:
    def test_report_names_run_and_staleness(self, tmp_path):
        result = dict(RESULT, worker_staleness={"0": {"count": 3, "mean": 1.0, "p50": 1, "p99": 2}})
        text = render_report(_manifest(tmp_path, result, run_id="rep"))
        assert "rep" in text and "dgs" in text and "staleness_p99" in text
        assert "per-worker staleness" in text

    def test_compare_shows_delta(self, tmp_path):
        a = _manifest(tmp_path, run_id="a")
        b = _manifest(tmp_path, dict(RESULT, final_loss=0.25), run_id="b")
        text = render_compare(a, b)
        assert "final_loss" in text and "-50.0%" in text


# ----------------------------------------------------------------------
# Cross-backend lane equivalence (dense ASGD)
# ----------------------------------------------------------------------
WORKER_SPAN_NAMES = {
    obs_names.WORKER_STEP,
    obs_names.WORKER_COMPUTE,
    obs_names.WORKER_APPLY,
}


def _traced_run(backend):
    tracer = Tracer()
    config = RunConfig(
        "asgd",
        lambda: MLP(8, (16,), 3, seed=5),
        make_blobs(n_samples=128, num_classes=3, dim=8, seed=2),
        num_workers=2,
        batch_size=16,
        total_iterations=8,
        hyper=Hyper(ratio=1.0),
        seed=0,
    )
    with use_tracer(tracer):
        train(config, backend=backend)
    return tracer.records()


def _worker_lanes(records):
    """worker id → span-name set, keyed off the ``worker`` span arg."""
    lanes: "dict[int, set[str]]" = {}
    for r in records:
        if r.get("type") != "span" or r.get("cat") != "worker":
            continue
        worker = r.get("args", {}).get("worker")
        if isinstance(worker, int):
            lanes.setdefault(worker, set()).add(r["name"])
    return lanes


@pytest.mark.slow
def test_backends_produce_lane_equivalent_traces():
    """The same dense ASGD job traced on process and socket (spans shipped
    back as TelemetryFrames, one lane per worker process) and simulated
    (virtual clock) must cover the same workers and agree on the worker
    span vocabulary — shipping must not drop or invent kinds."""
    traces = {b: _traced_run(b) for b in ("process", "socket", "simulated")}
    lanes = {b: _worker_lanes(records) for b, records in traces.items()}

    # Every backend traced both workers.
    for backend, worker_lanes in lanes.items():
        assert set(worker_lanes) == {0, 1}, f"{backend}: {sorted(worker_lanes)}"

    # Wall-clock backends emit the identical per-worker vocabulary; the
    # simulator's virtual lanes contain its compute spans for each worker.
    for worker in (0, 1):
        assert lanes["socket"][worker] & WORKER_SPAN_NAMES == (
            lanes["process"][worker] & WORKER_SPAN_NAMES
        )
        assert WORKER_SPAN_NAMES <= lanes["process"][worker]
        assert obs_names.WORKER_COMPUTE in lanes["simulated"][worker]

    # The remote workers' spans arrived via TelemetryFrame with one proc
    # lane per worker process in the merged trace.
    for backend in ("process", "socket"):
        spans = [r for r in traces[backend] if r.get("type") == "span"]
        assert {r.get("proc") for r in spans if r.get("proc")} == {"worker-0", "worker-1"}


# ----------------------------------------------------------------------
# A real traced run -> run dir -> the report / check CLI
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend, shards", [("process", 1), ("process", 2), ("socket", 2)]
)
def test_traced_run_dir_passes_the_health_gate(tmp_path, capsys, backend, shards):
    """A traced 2-worker DGS run writes a run dir whose trace has one lane
    per worker process and one per shard; ``repro.obs report`` renders it,
    and ``repro.obs check`` passes sane SLOs and fails an impossible one."""
    from repro.obs.__main__ import main

    tracer = Tracer()
    config = RunConfig(
        "dgs",
        lambda: MLP(12, (24,), 4, seed=7),
        make_blobs(n_samples=256, num_classes=4, dim=12, seed=1),
        num_workers=2,
        batch_size=16,
        total_iterations=8,
        hyper=Hyper(ratio=0.1, min_sparse_size=0),
        seed=0,
        num_shards=shards,
    )
    with use_tracer(tracer):
        result = train(config, backend=backend)
    records = tracer.records()
    run_dir = write_run_dir(
        tmp_path, result, config=config.describe(), run_id="run", records=records
    )
    assert load_manifest(run_dir)["result"]["num_shards"] == shards

    spans = [r for r in records if r.get("type") == "span"]
    shard_lanes = {r["tid"] for r in spans if str(r.get("tid", "")).startswith("shard-")}
    assert shard_lanes == ({f"shard-{i}" for i in range(shards)} if shards > 1 else set())
    assert {r.get("proc") for r in spans if r.get("proc")} == {"worker-0", "worker-1"}

    sane = ["--max-staleness-p99", "64", "--min-samples-per-sec", "1"]
    assert main(["report", str(run_dir)]) == 0
    assert main(["check", str(run_dir), *sane]) == 0
    assert main(["check", str(run_dir), "--max-staleness-p99", "-1"]) == 1
    assert "health violation" in capsys.readouterr().err
