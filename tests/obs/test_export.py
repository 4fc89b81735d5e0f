"""Exporters: Chrome trace validity, summaries, self-time, stream checks."""

import json

from repro.obs import (
    Tracer,
    check_stream,
    load_jsonl,
    render_summary,
    render_top,
    self_times,
    span_record,
    summarize,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def _sample_records():
    return [
        {"type": "meta", "method": "dgs"},
        span_record("worker.step", 0.0, 1.0, "worker-0", cat="worker", domain="wall",
                    args={"worker": 0}),
        span_record("worker.compute", 0.1, 0.5, "worker-0", cat="worker", domain="wall"),
        span_record("comm.send", 0.0, 0.2, "worker-0", cat="comm", domain="virtual",
                    args={"bytes": 128}),
        span_record("server.handle", 0.2, 0.1, "server", cat="server", domain="virtual",
                    args={"down_bytes": 64}),
    ]


class TestChromeTrace:
    def test_is_json_serialisable_with_required_keys(self, tmp_path):
        """Satellite: json.loads + required ph/ts/dur keys."""
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _sample_records())
        trace = json.loads(path.read_text())
        assert isinstance(trace["traceEvents"], list)
        x_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == 4
        for event in x_events:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))

    def test_validates_clean(self):
        assert validate_chrome_trace(to_chrome_trace(_sample_records())) == []

    def test_timestamps_are_microseconds(self):
        trace = to_chrome_trace(_sample_records())
        step = next(e for e in trace["traceEvents"] if e["name"] == "worker.step")
        assert step["ts"] == 0.0 and step["dur"] == 1_000_000.0

    def test_domains_become_process_lanes(self):
        trace = to_chrome_trace(_sample_records())
        events = trace["traceEvents"]
        wall = next(e for e in events if e["name"] == "worker.step")
        virt = next(e for e in events if e["name"] == "comm.send")
        assert wall["pid"] == 0 and virt["pid"] == 1
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {0: "wall-clock", 1: "virtual-clock"}

    def test_thread_metadata_emitted(self):
        trace = to_chrome_trace(_sample_records())
        tnames = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "worker-0" in tnames and "server" in tnames

    def test_meta_records_land_in_other_data(self):
        trace = to_chrome_trace(_sample_records(), meta={"seed": 1})
        assert trace["otherData"] == {"method": "dgs", "seed": 1}

    def test_validate_flags_bad_events(self):
        assert validate_chrome_trace({"traceEvents": None})
        bad = {"traceEvents": [{"name": "x", "ph": "B", "ts": 0}]}
        assert any("unsupported ph" in e for e in validate_chrome_trace(bad))
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0, "dur": -1.0, "pid": 0, "tid": 0}]}
        assert any("negative dur" in e for e in validate_chrome_trace(bad))


class TestSummaries:
    def test_summarize_groups_by_domain_and_phase(self):
        rows = summarize(_sample_records())
        by_key = {(r["domain"], r["phase"]): r for r in rows}
        assert by_key[("wall", "worker")]["count"] == 2
        assert by_key[("virtual", "comm")]["bytes"] == 128
        assert by_key[("virtual", "server")]["bytes"] == 64
        virt_share = sum(r["share"] for r in rows if r["domain"] == "virtual")
        assert abs(virt_share - 1.0) < 1e-9

    def test_summarize_counts_nested_time_once(self):
        # a (1.0 s) contains b (0.4 s) on one lane: the rows partition 1.0 s
        records = [
            span_record("a", 0.0, 1.0, "t0", cat="outer"),
            span_record("b", 0.3, 0.4, "t0", cat="inner"),
        ]
        rows = {r["phase"]: r for r in summarize(records)}
        assert abs(rows["outer"]["self_s"] - 0.6) < 1e-9
        assert abs(rows["inner"]["self_s"] - 0.4) < 1e-9
        assert abs(rows["outer"]["share"] - 0.6) < 1e-9

    def test_render_summary_includes_metrics_table(self):
        records = [*_sample_records(), {"type": "metric", "kind": "counter", "name": "n",
                                        "labels": {"w": "0"}, "value": 3.0}]
        text = render_summary(records)
        assert "per-phase span totals" in text
        assert "metric snapshots" in text
        assert "w=0" in text

    def test_self_times_subtract_children(self):
        records = [
            span_record("outer", 0.0, 1.0, "t0"),
            span_record("inner", 0.2, 0.5, "t0"),
        ]
        rows = {r["name"]: r for r in self_times(records)}
        assert rows["outer"]["total_s"] == 1.0
        assert abs(rows["outer"]["self_s"] - 0.5) < 1e-9
        assert rows["inner"]["self_s"] == 0.5

    def test_self_times_separate_lanes(self):
        # identical intervals in different lanes must not nest
        records = [
            span_record("a", 0.0, 1.0, "t0"),
            span_record("b", 0.0, 1.0, "t1"),
        ]
        rows = {r["name"]: r for r in self_times(records)}
        assert rows["a"]["self_s"] == 1.0 and rows["b"]["self_s"] == 1.0

    def test_render_top_limits(self):
        text = render_top(_sample_records(), n=2)
        assert "top 2 spans" in text


class TestAdapters:
    def test_check_stream_catches_schema_violation(self):
        assert check_stream([{"type": "span", "name": "x"}]) != []


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"type": "meta"}\n\n{"type": "metric", "name": "n", "kind": "counter", "value": 1}\n')
    records = load_jsonl(path)
    assert len(records) == 2


def test_dump_then_check_stream(tmp_path):
    tracer = Tracer(meta={"k": "v"})
    with tracer.span("a"):
        pass
    path = tmp_path / "t.jsonl"
    tracer.dump_jsonl(path)
    assert check_stream(load_jsonl(path)) == []
