"""Run manifests and health gating — the durable artifact of one run.

Every traced/benchmarked run can leave a ``runs/<run_id>/`` directory:

* ``manifest.json`` — the resolved run configuration, backend, git SHA,
  wall times, and the full :class:`TrainResult` in its JSON form
  (``result.to_dict()``), so two runs are comparable long after the
  processes are gone;
* ``metrics.jsonl`` — one ``type: "metric"`` record per line (the
  server's per-worker staleness / lock-contention histogram series plus
  anything the workers shipped back);
* ``trace.json`` — the merged Chrome trace (all processes, both clock
  domains).

On top of the artifact sit three CLI verbs (``python -m repro.obs
report | compare | check``) and :class:`HealthSpec` — a declarative SLO
on *run health* (staleness p99, samples/sec, skew between workers in
the run's clock) that :func:`evaluate_health` turns into a pass/fail
gate for benchmarks and CI.

This module deliberately knows nothing about the execution layer: the
result arrives duck-typed (anything with ``to_dict()``, or a plain
mapping), keeping the ``obs → metrics``-only import discipline intact.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import time
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Sequence

from ..metrics.tables import format_table
from .export import to_chrome_trace
from .metrics import quantile_from_counts
from .names import METRIC_SERVER_STALENESS

__all__ = [
    "HealthSpec",
    "HealthViolation",
    "evaluate_health",
    "git_sha",
    "load_manifest",
    "new_run_id",
    "render_compare",
    "render_report",
    "worker_skew_s",
    "write_run_dir",
]

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
TRACE_NAME = "trace.json"

#: manifest schema version — bump on incompatible layout changes
MANIFEST_VERSION = 1


def new_run_id(now: "float | None" = None) -> str:
    """Sortable unique run id: UTC timestamp + random suffix."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(now))
    return f"{stamp}-{os.urandom(3).hex()}"


def git_sha(cwd: "str | pathlib.Path | None" = None) -> "str | None":
    """The current git commit SHA, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _result_dict(result: Any) -> "dict[str, Any]":
    """Duck-typed view of a result: ``to_dict()`` if present, else mapping."""
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        return dict(to_dict())
    if isinstance(result, Mapping):
        return dict(result)
    raise TypeError(f"result must expose to_dict() or be a mapping, got {type(result).__name__}")


# ----------------------------------------------------------------------
# Worker skew
# ----------------------------------------------------------------------
def worker_skew_s(
    records: "Iterable[Mapping[str, Any]]", domain: str = "wall"
) -> "float | None":
    """Max spread of per-worker last-span end times in one clock domain.

    Groups ``domain`` spans by the worker that emitted them (the
    ``worker`` span arg) and measures how far apart the workers' final
    span ends are — a straggling worker shows up as a large skew.
    Returns None when fewer than two workers produced spans.
    """
    last_end: dict[int, float] = {}
    for rec in records:
        if rec.get("type") != "span" or rec.get("domain", "wall") != domain:
            continue
        worker = rec.get("args", {}).get("worker")
        if not isinstance(worker, int):
            continue
        end = float(rec["ts"]) + float(rec["dur"])
        if end > last_end.get(worker, float("-inf")):
            last_end[worker] = end
    if len(last_end) < 2:
        return None
    return max(last_end.values()) - min(last_end.values())


# ----------------------------------------------------------------------
# Writing and loading
# ----------------------------------------------------------------------
def write_run_dir(
    root: "str | pathlib.Path",
    result: Any,
    config: "Mapping[str, Any] | None" = None,
    run_id: "str | None" = None,
    records: "Sequence[Mapping[str, Any]] | None" = None,
    extra_meta: "Mapping[str, Any] | None" = None,
) -> pathlib.Path:
    """Write ``<root>/<run_id>/{manifest.json, metrics.jsonl, trace.json}``.

    ``records`` are merged span records (``tracer.records()``); when
    absent no trace.json is written and the manifest marks tracing off.
    The manifest's ``worker_skew_s`` is measured in the result's
    ``clock`` domain (wall when it has none).
    Returns the run directory path.
    """
    rd = _result_dict(result)
    run_id = run_id or new_run_id()
    run_dir = pathlib.Path(root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    metric_records = [dict(m) for m in (rd.get("metrics") or [])]
    with open(run_dir / METRICS_NAME, "w") as fh:
        for rec in metric_records:
            fh.write(json.dumps(rec) + "\n")

    skew: "float | None" = None
    traced = bool(records)
    if traced:
        trace = to_chrome_trace(list(records), meta={"run_id": run_id})
        with open(run_dir / TRACE_NAME, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        skew = worker_skew_s(records, domain=rd.get("clock") or "wall")

    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "backend": rd.get("backend"),
        "method": rd.get("method"),
        "config": dict(config) if config else {},
        "result": rd,
        "worker_skew_s": skew,
        "files": {
            "metrics": METRICS_NAME,
            "trace": TRACE_NAME if traced else None,
        },
    }
    if extra_meta:
        manifest.update(dict(extra_meta))
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    tmp.replace(run_dir / MANIFEST_NAME)  # atomic: readers never see a torn manifest
    return run_dir


def load_manifest(run_dir: "str | pathlib.Path") -> "dict[str, Any]":
    """Read ``manifest.json`` from a run directory (or a manifest path)."""
    path = pathlib.Path(run_dir)
    if path.is_dir():
        path = path / MANIFEST_NAME
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Health gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HealthViolation:
    """One failed SLO: which limit, what the run measured."""

    check: str
    limit: float
    observed: float
    detail: str = ""

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.check}: observed {self.observed:.6g} vs limit {self.limit:.6g}{extra}"


@dataclass(frozen=True)
class HealthSpec:
    """Declarative SLO on run health; None disables a check.

    * ``max_staleness_p99`` — the run's exact staleness p99 (falling back
      to the bucket-interpolated estimate from the server's histogram
      series when the result lacks the exact number) must not exceed it;
    * ``min_samples_per_sec`` — end-to-end throughput floor;
    * ``max_worker_skew_s`` — spread between the workers' last spans, in
      the run's clock domain (virtual seconds on the simulator; requires
      a traced run; an untraced manifest skips it).
    """

    max_staleness_p99: "float | None" = None
    min_samples_per_sec: "float | None" = None
    max_worker_skew_s: "float | None" = None

    @staticmethod
    def from_dict(data: "Mapping[str, Any]") -> "HealthSpec":
        known = {f.name for f in fields(HealthSpec)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown HealthSpec keys: {sorted(unknown)}")
        return HealthSpec(**{k: (None if v is None else float(v)) for k, v in data.items()})

    @staticmethod
    def from_file(path: "str | pathlib.Path") -> "HealthSpec":
        with open(path) as fh:
            return HealthSpec.from_dict(json.load(fh))


def _staleness_p99(manifest: "Mapping[str, Any]") -> "float | None":
    """Exact p99 from the result, else estimated from histogram series."""
    result = manifest.get("result", {})
    p99 = result.get("staleness_p99")
    if isinstance(p99, (int, float)) and not math.isnan(p99):
        return float(p99)
    worst: "float | None" = None
    for metric in result.get("metrics") or []:
        if metric.get("kind") != "histogram" or metric.get("name") != METRIC_SERVER_STALENESS:
            continue
        estimate = quantile_from_counts(metric["buckets"], metric["counts"], 0.99)
        if not math.isnan(estimate) and (worst is None or estimate > worst):
            worst = estimate
    return worst


def evaluate_health(
    manifest: "Mapping[str, Any]", spec: HealthSpec
) -> "list[HealthViolation]":
    """All SLO violations of ``manifest`` against ``spec`` (empty = healthy)."""
    violations: list[HealthViolation] = []
    result = manifest.get("result", {})

    if spec.max_staleness_p99 is not None:
        p99 = _staleness_p99(manifest)
        if p99 is None:
            violations.append(
                HealthViolation(
                    "max_staleness_p99",
                    spec.max_staleness_p99,
                    float("nan"),
                    "run reports no staleness observations",
                )
            )
        elif p99 > spec.max_staleness_p99:
            violations.append(
                HealthViolation("max_staleness_p99", spec.max_staleness_p99, p99)
            )

    if spec.min_samples_per_sec is not None:
        samples = result.get("samples_processed") or 0
        makespan = result.get("makespan_s")
        if not makespan or makespan <= 0:
            violations.append(
                HealthViolation(
                    "min_samples_per_sec",
                    spec.min_samples_per_sec,
                    float("nan"),
                    "run reports no makespan",
                )
            )
        else:
            rate = samples / makespan
            if rate < spec.min_samples_per_sec:
                violations.append(
                    HealthViolation("min_samples_per_sec", spec.min_samples_per_sec, rate)
                )

    if spec.max_worker_skew_s is not None:
        skew = manifest.get("worker_skew_s")
        # Untraced runs cannot measure skew; the check is skipped, not failed
        # (tracing is opt-in and the other gates still apply).
        if isinstance(skew, (int, float)) and skew > spec.max_worker_skew_s:
            violations.append(
                HealthViolation("max_worker_skew_s", spec.max_worker_skew_s, float(skew))
            )

    return violations


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
_REPORT_FIELDS = (
    ("final_loss", "{:.6g}"),
    ("final_accuracy", "{:.4f}"),
    ("total_iterations", "{}"),
    ("samples_processed", "{}"),
    ("makespan_s", "{:.6g}"),
    ("throughput", "{:.6g}"),
    ("mean_staleness", "{:.4g}"),
    ("staleness_p50", "{:.4g}"),
    ("staleness_p99", "{:.4g}"),
    ("upload_bytes", "{}"),
    ("download_bytes", "{}"),
    ("compression_ratio", "{:.4g}"),
)


def _fmt(value: Any, fmt: str) -> str:
    if value is None:
        return "-"
    try:
        return fmt.format(value)
    except (ValueError, TypeError):
        return str(value)


def render_report(manifest: "Mapping[str, Any]") -> str:
    """Human-readable summary of one run manifest."""
    result = manifest.get("result", {})
    header = (
        f"run {manifest.get('run_id', '?')} — "
        f"{result.get('method', '?')} on {result.get('backend', '?')} "
        f"({result.get('num_workers', '?')} workers)"
    )
    rows = [[name, _fmt(result.get(name), fmt)] for name, fmt in _REPORT_FIELDS]
    skew = manifest.get("worker_skew_s")
    rows.append(["worker_skew_s", _fmt(skew, "{:.6g}")])
    rows.append(["git_sha", str(manifest.get("git_sha") or "-")[:12]])
    per_worker = result.get("worker_staleness") or {}
    table = format_table(["field", "value"], rows, title=header)
    if not per_worker:
        return table
    wtable = format_table(
        ["worker", "updates", "mean", "p50", "p99"],
        [
            [
                w,
                summary.get("count", 0),
                _fmt(summary.get("mean"), "{:.4g}"),
                _fmt(summary.get("p50"), "{:.4g}"),
                _fmt(summary.get("p99"), "{:.4g}"),
            ]
            for w, summary in sorted(per_worker.items(), key=lambda kv: str(kv[0]))
        ],
        title="per-worker staleness",
    )
    return table + "\n\n" + wtable


def render_compare(a: "Mapping[str, Any]", b: "Mapping[str, Any]") -> str:
    """Side-by-side deltas between two run manifests (b relative to a)."""
    ra, rb = a.get("result", {}), b.get("result", {})
    rows = []
    for name, fmt in _REPORT_FIELDS:
        va, vb = ra.get(name), rb.get(name)
        delta = "-"
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if not (math.isnan(float(va)) or math.isnan(float(vb))):
                diff = vb - va
                if va not in (0, 0.0):
                    delta = f"{diff:+.4g} ({100.0 * diff / va:+.1f}%)"
                else:
                    delta = f"{diff:+.4g}"
        rows.append([name, _fmt(va, fmt), _fmt(vb, fmt), delta])
    title = (
        f"{a.get('run_id', 'a')} ({ra.get('method', '?')}/{ra.get('backend', '?')})  vs  "
        f"{b.get('run_id', 'b')} ({rb.get('method', '?')}/{rb.get('backend', '?')})"
    )
    return format_table(["field", "a", "b", "delta (b-a)"], rows, title=title)
