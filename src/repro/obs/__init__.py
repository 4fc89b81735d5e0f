"""Unified tracing + metrics for every execution layer (``repro.obs``).

One schema, three producers, three exporters:

* **Producers** — the exchange path emits its own *span* records at its
  call sites: the worker loop and ``WorkerNode.compute_step`` (batch,
  forward/backward, strategy), the frame codec (``wire.*``), the
  channels (``comm.*``) and the parameter server (``server.*`` with the
  tracker's ``tracker.*`` inside), on the wall clock; the event-driven
  simulator adds its modelled timeline on the virtual clock.  The
  parameter server additionally meters lock wait/hold per worker.
* **Schema** — ``repro.obs.span``: JSONL records (``meta`` / ``span`` /
  ``metric`` / ``step``) with explicit clock domains.
* **Exporters** — Chrome ``chrome://tracing`` JSON, a flamegraph-style
  text summary, and Prometheus text, behind ``python -m repro.obs``
  (``convert`` / ``summary`` / ``top``, and ``report`` / ``compare`` /
  ``check`` over run directories) and
  ``python -m repro run --trace out.json``.

See ``docs/observability.md`` for the full API and overhead numbers.
"""

from .export import (
    check_stream,
    load_jsonl,
    render_summary,
    render_top,
    self_times,
    summarize,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsLogger,
    quantile_from_counts,
)
from .names import is_valid_name, registered_names
from .runs import (
    HealthSpec,
    HealthViolation,
    evaluate_health,
    git_sha,
    load_manifest,
    new_run_id,
    render_compare,
    render_report,
    worker_skew_s,
    write_run_dir,
)
from .span import relabel_records, span_record, validate_record, validate_records
from .tracer import NullTracer, Tracer, current_tracer, set_tracer, use_tracer
from . import names

__all__ = [
    "span_record",
    "relabel_records",
    "validate_record",
    "validate_records",
    "names",
    "is_valid_name",
    "registered_names",
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
    "quantile_from_counts",
    "Tracer",
    "NullTracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsLogger",
    "DEFAULT_BUCKETS",
    "check_stream",
    "load_jsonl",
    "summarize",
    "render_summary",
    "render_top",
    "self_times",
    "to_chrome_trace",
    "to_prometheus",
    "validate_chrome_trace",
    "write_chrome_trace",
]
