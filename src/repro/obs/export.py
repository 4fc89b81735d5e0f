"""Exporters: Chrome trace JSON, flamegraph-style text, Prometheus text.

All exporters consume the JSONL record schema of ``repro.obs.span``:

* :func:`to_chrome_trace` — a ``chrome://tracing`` / Perfetto-loadable
  JSON object.  The two clock domains become two process lanes (pid 0 =
  wall clock, pid 1 = virtual clock) so real profiling time and modelled
  simulator time never interleave on one timeline.
* :func:`summarize` / :func:`render_summary` — per-phase (category)
  totals: span count, self time, share, and bytes (summed from any
  ``*bytes*`` span args — which is how the summary ties back to
  :class:`repro.compression.stats.CompressionStats`).
* :func:`self_times` / :func:`render_top` — flamegraph-style hot list:
  self time per span name with nesting subtracted per thread lane.
* :func:`to_prometheus` — text exposition of a metrics snapshot.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..metrics.tables import format_table
from .span import DOMAINS, validate_records

__all__ = [
    "check_stream",
    "load_jsonl",
    "render_summary",
    "render_top",
    "self_times",
    "summarize",
    "to_chrome_trace",
    "to_prometheus",
    "validate_chrome_trace",
    "write_chrome_trace",
]

_US = 1e6  # chrome trace timestamps are microseconds


def load_jsonl(path: "str | pathlib.Path") -> "list[dict[str, Any]]":
    """Read one JSONL record stream (blank lines ignored)."""
    records: list[dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _spans(records: "Iterable[Mapping[str, Any]]") -> "list[Mapping[str, Any]]":
    return [r for r in records if r.get("type") == "span"]


def _span_bytes(record: "Mapping[str, Any]") -> int:
    """Sum of all byte-count args attached to a span."""
    return sum(
        int(v)
        for k, v in record.get("args", {}).items()
        if "bytes" in k and isinstance(v, (int, float))
    )


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def to_chrome_trace(
    records: "Sequence[Mapping[str, Any]]", meta: "Mapping[str, Any] | None" = None
) -> "dict[str, Any]":
    """Convert a record stream to the Chrome Trace Event JSON format.

    Process lanes: pid 0/1 are the wall/virtual clock domains of the
    coordinating process.  Spans shipped from worker processes carry a
    ``proc`` label (see :func:`repro.obs.span.relabel_records`); each
    distinct ``(domain, proc)`` pair gets its own pid from 2 upward, so a
    merged multi-process trace renders one lane per worker process
    without disturbing the single-process layout.
    """
    events: list[dict[str, Any]] = []
    base_pid_of = {domain: i for i, domain in enumerate(DOMAINS)}
    pid_of: dict[tuple[str, "str | None"], int] = {}
    tid_of: dict[tuple[int, str], int] = {}

    merged_meta: dict[str, Any] = {}
    for record in records:
        if record.get("type") == "meta":
            merged_meta.update({k: v for k, v in record.items() if k != "type"})
    if meta:
        merged_meta.update(meta)

    next_pid = len(DOMAINS)
    for record in _spans(records):
        domain = record.get("domain", "wall")
        proc = record.get("proc")
        lane = (domain, proc)
        if lane not in pid_of:
            if proc is None:
                pid_of[lane] = base_pid_of.get(domain, 0)
            else:
                pid_of[lane] = next_pid
                next_pid += 1
        pid = pid_of[lane]
        key = (pid, str(record["tid"]))
        tid = tid_of.setdefault(key, len(tid_of))
        event: dict[str, Any] = {
            "name": record["name"],
            "cat": record.get("cat", "default"),
            "ph": "X",
            "ts": round(record["ts"] * _US, 3),
            "dur": round(record["dur"] * _US, 3),
            "pid": pid,
            "tid": tid,
        }
        if record.get("args"):
            event["args"] = dict(record["args"])
        events.append(event)

    for (domain, proc), pid in sorted(pid_of.items(), key=lambda kv: kv[1]):
        lane_name = f"{domain}-clock" if proc is None else f"{domain}-clock · {proc}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": lane_name},
            }
        )
    for (pid, tname), tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": tname}}
        )

    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": merged_meta}


def write_chrome_trace(
    path: "str | pathlib.Path",
    records: "Sequence[Mapping[str, Any]]",
    meta: "Mapping[str, Any] | None" = None,
    indent: "int | None" = None,
) -> "dict[str, Any]":
    """Write :func:`to_chrome_trace` output to ``path``; returns the object."""
    trace = to_chrome_trace(records, meta=meta)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=indent)
        fh.write("\n")
    return trace


def validate_chrome_trace(trace: "Mapping[str, Any]") -> "list[str]":
    """Violations of the Chrome Trace Event format (empty ⇒ valid)."""
    errors: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' must be a list"]
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            errors.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"event {i}: unsupported ph {ph!r}")
            continue
        if "name" not in event:
            errors.append(f"event {i}: missing 'name'")
        if ph == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    errors.append(f"event {i}: 'X' event needs numeric {key!r}")
            if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                errors.append(f"event {i}: negative dur")
            for key in ("pid", "tid"):
                if not isinstance(event.get(key), int):
                    errors.append(f"event {i}: 'X' event needs integer {key!r}")
    return errors


# ----------------------------------------------------------------------
# Per-phase summary
# ----------------------------------------------------------------------
def summarize(records: "Sequence[Mapping[str, Any]]") -> "list[dict[str, Any]]":
    """Aggregate spans per (domain, category): count, self time, bytes.

    Time is *self* time (see :func:`self_times`), so a parent and the
    children it contains are not counted twice and the rows of one domain
    partition its traced time.
    """
    agg: dict[tuple[str, str], dict[str, Any]] = {}
    for record, self_s in _with_self_time(records):
        key = (record.get("domain", "wall"), record.get("cat", "default"))
        row = agg.setdefault(
            key, {"domain": key[0], "phase": key[1], "count": 0, "self_s": 0.0, "bytes": 0}
        )
        row["count"] += 1
        row["self_s"] += self_s
        row["bytes"] += _span_bytes(record)
    rows = sorted(agg.values(), key=lambda r: (r["domain"], -r["self_s"]))
    for row in rows:
        domain_total = sum(r["self_s"] for r in rows if r["domain"] == row["domain"])
        row["share"] = row["self_s"] / domain_total if domain_total > 0 else 0.0
    return rows


def render_summary(records: "Sequence[Mapping[str, Any]]") -> str:
    """Plain-text per-phase table (the ``repro.obs summary`` output)."""
    rows = summarize(records)
    table = format_table(
        ["domain", "phase", "spans", "self_s", "share", "bytes"],
        [
            [r["domain"], r["phase"], r["count"], r["self_s"], f"{100 * r['share']:.1f}%", r["bytes"]]
            for r in rows
        ],
        title="per-phase span totals",
    )
    metrics = [r for r in records if r.get("type") == "metric"]
    if metrics:
        mtable = format_table(
            ["metric", "labels", "value"],
            [
                [
                    m["name"],
                    ",".join(f"{k}={v}" for k, v in sorted(m.get("labels", {}).items())) or "-",
                    m.get("value", m.get("count", 0)),
                ]
                for m in metrics
            ],
            title="metric snapshots",
        )
        return table + "\n\n" + mtable
    return table


# ----------------------------------------------------------------------
# Flamegraph-style self time
# ----------------------------------------------------------------------
def _with_self_time(
    records: "Sequence[Mapping[str, Any]]",
) -> "Iterator[tuple[Mapping[str, Any], float]]":
    """Every span with its *self* time (its duration minus its children's).

    Spans are grouped per (domain, tid) lane, sorted by start time, and
    nested by interval containment — the same reconstruction a flamegraph
    does from a Chrome trace.
    """
    lanes: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for record in _spans(records):
        lanes.setdefault((record.get("domain", "wall"), str(record["tid"])), []).append(record)

    eps = 1e-12
    for spans in lanes.values():
        spans = sorted(spans, key=lambda r: (r["ts"], -r["dur"]))
        stack: list[dict[str, Any]] = []
        for record in spans:
            start, dur = float(record["ts"]), float(record["dur"])
            while stack and stack[-1]["end"] <= start + eps:
                done = stack.pop()
                yield done["record"], done["self"]
            if stack:
                stack[-1]["self"] -= dur
            stack.append({"record": record, "end": start + dur, "self": dur})
        while stack:
            done = stack.pop()
            yield done["record"], done["self"]


def self_times(records: "Sequence[Mapping[str, Any]]") -> "list[dict[str, Any]]":
    """Per span name: total and *self* time (children subtracted)."""
    agg: dict[tuple[str, str], dict[str, Any]] = {}
    for record, self_s in _with_self_time(records):
        domain, name = record.get("domain", "wall"), record["name"]
        row = agg.setdefault(
            (domain, name),
            {"domain": domain, "name": name, "count": 0, "self_s": 0.0, "total_s": 0.0},
        )
        row["count"] += 1
        row["self_s"] += self_s
        row["total_s"] += float(record["dur"])
    return sorted(agg.values(), key=lambda r: -r["self_s"])


def render_top(records: "Sequence[Mapping[str, Any]]", n: int = 20) -> str:
    """Hot-list table of the ``n`` largest self-time span names."""
    rows = self_times(records)[:n]
    return format_table(
        ["domain", "name", "count", "self_s", "total_s"],
        [[r["domain"], r["name"], r["count"], r["self_s"], r["total_s"]] for r in rows],
        title=f"top {min(n, len(rows))} spans by self time",
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def _prom_labels(labels: "Mapping[str, Any]", extra: "Mapping[str, Any] | None" = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def to_prometheus(snapshot: "Sequence[Mapping[str, Any]]") -> str:
    """Render metric records in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_type: set[str] = set()
    for metric in snapshot:
        if metric.get("type") not in (None, "metric"):
            continue
        name = _prom_name(metric["name"])
        kind = metric.get("kind", "gauge")
        if name not in seen_type:
            lines.append(f"# TYPE {name} {kind}")
            seen_type.add(name)
        labels = metric.get("labels", {})
        if kind == "histogram":
            cumulative = 0
            for upper, count in zip(metric["buckets"], metric["counts"]):
                cumulative += count
                lines.append(f"{name}_bucket{_prom_labels(labels, {'le': upper})} {cumulative}")
            cumulative += metric["counts"][-1]
            lines.append(f'{name}_bucket{_prom_labels(labels, {"le": "+Inf"})} {cumulative}')
            lines.append(f"{name}_sum{_prom_labels(labels)} {metric['sum']}")
            lines.append(f"{name}_count{_prom_labels(labels)} {metric['count']}")
        else:
            lines.append(f"{name}{_prom_labels(labels)} {metric['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


def check_stream(records: "Sequence[Mapping[str, Any]]") -> "list[str]":
    """Validate a record stream *and* its Chrome conversion in one pass."""
    errors = validate_records(records)
    if not errors:
        errors = validate_chrome_trace(to_chrome_trace(records))
    return errors
