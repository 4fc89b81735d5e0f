"""Span record schema shared by every producer and exporter.

One *span* is a named, timed interval — ``{name, cat, ts, dur, tid,
domain, args}`` — the common currency of the observability subsystem:

* the exchange path — worker loop, ``compute_step``, frame codec,
  channels, parameter server — emits spans on the **wall** clock
  (``time.perf_counter``, seconds);
* the event-driven simulator emits spans on its **virtual** clock
  (the modelled wire/compute time of ``repro.sim``);
* exporters (Chrome trace, flame summary) consume both, keeping the two
  clock domains on separate process lanes so they never interleave.

Records are plain dicts so they serialise to JSONL without conversion;
:func:`validate_record` is the single source of truth for the schema and
is what ``python -m repro.obs convert`` enforces.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "DOMAINS",
    "RECORD_TYPES",
    "SPAN_KEYS",
    "relabel_records",
    "span_record",
    "validate_record",
    "validate_records",
]

#: clock domains a span may be stamped in
DOMAINS = ("wall", "virtual")

#: record types a ``repro.obs`` JSONL stream may contain
RECORD_TYPES = ("meta", "span", "metric")

#: required keys of a ``type == "span"`` record
SPAN_KEYS = ("name", "cat", "ts", "dur", "tid", "domain")


def span_record(
    name: str,
    ts: float,
    dur: float,
    tid: str,
    cat: str = "default",
    domain: str = "wall",
    args: "Mapping[str, Any] | None" = None,
    proc: "str | None" = None,
) -> "dict[str, Any]":
    """Build one schema-conformant span record.

    ``proc`` labels the logical producer process (``worker-3``) for spans
    shipped across a process boundary; in-process producers omit it.
    """
    rec: dict[str, Any] = {
        "type": "span",
        "name": name,
        "cat": cat,
        "ts": float(ts),
        "dur": float(dur),
        "tid": str(tid),
        "domain": domain,
    }
    if proc is not None:
        rec["proc"] = str(proc)
    if args:
        rec["args"] = dict(args)
    return rec


def relabel_records(
    records: "Iterable[Mapping[str, Any]]", proc: str
) -> "list[dict[str, Any]]":
    """Stamp records shipped from another process with their origin lane.

    Used by the process backend when merging a worker child's telemetry
    into the parent tracer: every span gains ``proc`` (a distinct Chrome
    process lane) and its ``tid`` is prefixed so ``worker-0:MainThread``
    and ``worker-1:MainThread`` never collide in flame summaries.
    """
    out: list[dict[str, Any]] = []
    for record in records:
        rec = dict(record)
        if rec.get("type") == "span":
            rec["proc"] = proc
            tid = str(rec.get("tid", ""))
            if not tid.startswith(f"{proc}:"):
                rec["tid"] = f"{proc}:{tid}"
        out.append(rec)
    return out


def validate_record(record: "Mapping[str, Any]", index: int = 0) -> "list[str]":
    """Schema violations of one record (empty list ⇒ valid)."""
    errors: list[str] = []
    rtype = record.get("type")
    if rtype not in RECORD_TYPES:
        errors.append(f"record {index}: unknown type {rtype!r}")
        return errors
    if rtype == "span":
        for key in SPAN_KEYS:
            if key not in record:
                errors.append(f"record {index}: span missing key {key!r}")
        for key in ("ts", "dur"):
            value = record.get(key)
            if key in record and not isinstance(value, (int, float)):
                errors.append(f"record {index}: span {key!r} must be numeric, got {value!r}")
        if isinstance(record.get("dur"), (int, float)) and record["dur"] < 0:
            errors.append(f"record {index}: span dur must be >= 0, got {record['dur']}")
        if "domain" in record and record["domain"] not in DOMAINS:
            errors.append(f"record {index}: unknown domain {record['domain']!r}")
        if "proc" in record and not isinstance(record["proc"], str):
            errors.append(f"record {index}: span proc must be a string")
        if "args" in record and not isinstance(record["args"], dict):
            errors.append(f"record {index}: span args must be a mapping")
    elif rtype == "metric":
        for key in ("kind", "name"):
            if key not in record:
                errors.append(f"record {index}: metric missing key {key!r}")
    return errors


def validate_records(records: "Iterable[Mapping[str, Any]]") -> "list[str]":
    """Schema violations across a whole record stream."""
    errors: list[str] = []
    for i, record in enumerate(records):
        errors.extend(validate_record(record, i))
    return errors
