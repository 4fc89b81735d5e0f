"""Metrics registry and labeled series."""

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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
