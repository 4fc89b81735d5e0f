"""Observability CLI.

Usage::

    python -m repro.obs convert run.jsonl out.json   # Chrome trace (validates)
    python -m repro.obs summary run.jsonl            # per-phase time + bytes
    python -m repro.obs summary run.jsonl --prometheus
    python -m repro.obs top run.jsonl -n 15          # self-time hot list
    python -m repro.obs report runs/<id>             # one-run manifest summary
    python -m repro.obs compare runs/<a> runs/<b>    # field-by-field deltas
    python -m repro.obs check runs/<id> --max-staleness-p99 8

``convert`` validates both the input record stream and the produced
Chrome JSON and exits non-zero on any schema violation.  ``check``
evaluates a :class:`~repro.obs.runs.HealthSpec` against a run manifest
and exits non-zero on any violated SLO — the run-health gate.
"""

from __future__ import annotations

import argparse
import sys

from .export import (
    load_jsonl,
    render_summary,
    render_top,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
)
from .runs import (
    HealthSpec,
    evaluate_health,
    load_manifest,
    render_compare,
    render_report,
)
from .span import validate_records


def _cmd_convert(args: argparse.Namespace) -> int:
    records = load_jsonl(args.input)
    errors = validate_records(records)
    if errors:
        for err in errors:
            print(f"schema violation: {err}", file=sys.stderr)
        return 1
    trace = to_chrome_trace(records)
    errors = validate_chrome_trace(trace)
    if errors:
        for err in errors:
            print(f"chrome-trace violation: {err}", file=sys.stderr)
        return 1
    write_chrome_trace(args.output, records, indent=2 if args.indent else None)
    nspans = sum(1 for r in records if r.get("type") == "span")
    print(f"wrote {args.output}: {nspans} spans, {len(trace['traceEvents'])} events", file=sys.stderr)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    records = load_jsonl(args.input)
    if args.prometheus:
        print(to_prometheus([r for r in records if r.get("type") == "metric"]), end="")
        return 0
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta:
        fields = ", ".join(f"{k}={v}" for k, v in meta.items() if k != "type")
        if fields:
            print(f"run: {fields}\n")
    print(render_summary(records))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    print(render_top(load_jsonl(args.input), n=args.n))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(load_manifest(args.run_dir)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    print(render_compare(load_manifest(args.a), load_manifest(args.b)))
    return 0


def _spec_from_args(args: argparse.Namespace) -> HealthSpec:
    if args.spec is not None:
        return HealthSpec.from_file(args.spec)
    return HealthSpec(
        max_staleness_p99=args.max_staleness_p99,
        min_samples_per_sec=args.min_samples_per_sec,
        max_worker_skew_s=args.max_worker_skew_s,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.run_dir)
    spec = _spec_from_args(args)
    violations = evaluate_health(manifest, spec)
    run_id = manifest.get("run_id", args.run_dir)
    if violations:
        for v in violations:
            print(f"health violation [{run_id}] {v}", file=sys.stderr)
        return 1
    print(f"run {run_id}: healthy", file=sys.stderr)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="JSONL records -> Chrome trace JSON (validating)")
    p_convert.add_argument("input")
    p_convert.add_argument("output")
    p_convert.add_argument("--indent", action="store_true", help="pretty-print the JSON")
    p_convert.set_defaults(fn=_cmd_convert)

    p_summary = sub.add_parser("summary", help="per-phase time + bytes table")
    p_summary.add_argument("input")
    p_summary.add_argument(
        "--prometheus", action="store_true", help="print metric records as Prometheus text"
    )
    p_summary.set_defaults(fn=_cmd_summary)

    p_top = sub.add_parser("top", help="flamegraph-style self-time hot list")
    p_top.add_argument("input")
    p_top.add_argument("-n", type=int, default=20, help="number of rows (default 20)")
    p_top.set_defaults(fn=_cmd_top)

    p_report = sub.add_parser("report", help="summarise one run manifest")
    p_report.add_argument("run_dir")
    p_report.set_defaults(fn=_cmd_report)

    p_compare = sub.add_parser("compare", help="field-by-field deltas between two runs")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    p_compare.set_defaults(fn=_cmd_compare)

    p_check = sub.add_parser("check", help="health-gate a run manifest (non-zero on violation)")
    p_check.add_argument("run_dir")
    p_check.add_argument("--spec", help="HealthSpec JSON file (overrides the flag limits)")
    p_check.add_argument("--max-staleness-p99", type=float, default=None)
    p_check.add_argument("--min-samples-per-sec", type=float, default=None)
    p_check.add_argument("--max-worker-skew-s", type=float, default=None)
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
