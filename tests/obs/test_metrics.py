"""Metrics registry, labeled series, and the ObsLogger JSONL sink."""

import json
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsLogger,
    Tracer,
    to_prometheus,
    validate_records,
)


class TestCounter:
    def test_inc(self):
        c = Counter("msgs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = Counter("msgs")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_snapshot(self):
        c = Counter("up_bytes", {"method": "dgs"})
        c.inc(10)
        snap = c.snapshot()
        assert snap == {
            "type": "metric",
            "kind": "counter",
            "name": "up_bytes",
            "labels": {"method": "dgs"},
            "value": 10.0,
        }

    def test_thread_safe_increments(self):
        c = Counter("n")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("staleness")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0
        assert g.snapshot()["kind"] == "gauge"


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]  # last slot = +Inf overflow
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.0555)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes", method="dgs")
        b = reg.counter("bytes", method="dgs")
        assert a is b

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes", method="dgs")
        b = reg.counter("bytes", method="topk")
        assert a is not b

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", x=1, y=2)
        b = reg.gauge("g", y=2, x=1)
        assert a is b

    def test_snapshot_is_schema_valid(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert len(snap) == 3
        assert validate_records(snap) == []


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("up_bytes", method="dgs").inc(42)
        reg.gauge("staleness").set(3)
        text = to_prometheus(reg.snapshot())
        assert '# TYPE repro_up_bytes counter' in text
        assert 'repro_up_bytes{method="dgs"} 42.0' in text
        assert "repro_staleness 3.0" in text
        assert text.endswith("\n")

    def test_histogram_exposition_cumulative(self):
        h = Histogram("lat", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(1.0)
        text = to_prometheus([h.snapshot()])
        assert 'repro_lat_bucket{le="0.01"} 1' in text
        assert 'repro_lat_bucket{le="0.1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text


class TestObsLogger:
    def test_log_step_matches_runlog_signature(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ObsLogger(path, meta={"method": "dgs"}) as log:
            log.log_step(0, 1.25, time_s=0.5, worker=1, staleness=2, up_bytes=99)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"type": "meta", "method": "dgs"}
        assert lines[1] == {
            "type": "step",
            "step": 0,
            "loss": 1.25,
            "time_s": 0.5,
            "worker": 1,
            "staleness": 2,
            "up_bytes": 99,
        }

    def test_simulated_trainer_logs(self, tiny_dataset, tiny_model_factory, tmp_path):
        """The simulator's ``logger=`` calls ``log_step`` once per applied
        update; the stream reloads with ``load_jsonl``."""
        from repro.core import Hyper
        from repro.obs import load_jsonl
        from repro.exec import RunConfig, SimulatedTrainer
        from repro.sim import ClusterConfig

        path = tmp_path / "train.jsonl"
        with ObsLogger(path, meta={"method": "dgs"}) as logger:
            config = RunConfig(
                "dgs", tiny_model_factory, tiny_dataset, num_workers=2,
                batch_size=16, total_iterations=30,
                hyper=Hyper(ratio=0.1, min_sparse_size=0), logger=logger, seed=0,
                cluster=ClusterConfig.with_bandwidth(2, 10, compute_mean_s=0.02),
            )
            SimulatedTrainer(config).run()
        steps = [r for r in load_jsonl(path) if r["type"] == "step"]
        assert len(steps) == 30
        assert {"step", "loss", "time_s", "worker", "staleness", "up_bytes"} <= set(steps[0])
        times = [s["time_s"] for s in steps]
        assert times == sorted(times)

    def test_flushes_on_every_write(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = ObsLogger(path)
        log.log_step(0, 0.1)
        # readable before close — flush-on-write
        assert json.loads(path.read_text().splitlines()[0])["step"] == 0
        log.close()

    def test_close_idempotent(self, tmp_path):
        log = ObsLogger(tmp_path / "run.jsonl")
        log.close()
        log.close()

    def test_log_spans_and_metrics_single_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer()
        with tracer.span("a", cat="worker"):
            pass
        reg = MetricsRegistry()
        reg.counter("n").inc()
        with ObsLogger(path) as log:
            log.log_step(0, 0.5)
            log.log_spans(tracer.records())
            log.log_metrics(reg)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == ["step", "span", "metric"]
        assert validate_records(records) == []
        assert log.steps() == [records[0]]

    def test_memory_only_mode(self):
        log = ObsLogger()
        log.log_step(1, 2.0)
        assert log.steps()[0]["loss"] == 2.0
