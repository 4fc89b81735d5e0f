"""The unified result schema of the execution layer.

Every backend — real threads, real processes, the event-driven simulator
and the synchronous barrier reference — returns one :class:`TrainResult`,
the superset of what the engines measure, with explicit *not measured*
semantics:

* ``None`` — the backend cannot measure the quantity at all (e.g. the
  process backend cannot see worker-side strategy buffers of a crashed
  child, the sync barrier has no parameter server, the wall-clock backends
  have no modelled network link);
* ``NaN`` — the quantity is defined but no samples were observed (e.g.
  ``mean_staleness`` before any exchange).

Field-by-field semantics are documented in ``docs/execution.md``; each
backend declares the optional fields it guarantees to populate in its
``measures`` set, and :func:`validate_result` enforces the contract (the
schema oracle every backend's result is checked against in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

from ..metrics.curves import Curve

__all__ = ["TrainResult", "validate_result"]


@dataclass
class TrainResult:
    """Outcome of one distributed training run, on any backend."""

    #: method registry name ("asgd", "dgs", ...)
    method: str = ""
    #: backend registry name ("process", "socket", "simulated", "sync")
    backend: str = ""
    num_workers: int = 0
    #: parameter-server shards the run actually used (1 = single-lock
    #: server; stays 1 on backends without a PS, e.g. the sync barrier)
    num_shards: int = 1
    final_accuracy: float = float("nan")
    final_loss: float = float("nan")
    #: training loss against applied server updates (sync: against rounds)
    loss_vs_step: Curve = field(default_factory=lambda: Curve("loss_vs_step"))
    #: gradient computations applied at the server (== final server
    #: timestamp; sync: rounds × workers, one aggregate per round)
    total_iterations: int = 0
    #: training samples consumed across all workers
    samples_processed: int = 0
    #: mean server-side staleness (0.0 under the synchronous barrier)
    mean_staleness: float = float("nan")
    #: exact staleness percentiles across all updates (NaN before any
    #: exchange; 0.0 under the synchronous barrier, where staleness is
    #: defined by construction)
    staleness_p50: float = float("nan")
    staleness_p99: float = float("nan")
    #: actual payload bytes shipped worker→server (codec-level accounting)
    upload_bytes: int = 0
    #: actual payload bytes shipped server→worker
    download_bytes: int = 0

    # -- fields a backend may be unable to measure (None = not measured) --
    #: training loss against the run clock (virtual backends only)
    loss_vs_time: "Curve | None" = None
    #: periodic validation accuracy (simulated backend with ``eval_every``)
    acc_vs_step: "Curve | None" = None
    #: end-to-end run time in seconds, in this backend's clock domain
    makespan_s: "float | None" = None
    #: clock domain of ``makespan_s``/``loss_vs_time``: "wall" | "virtual"
    clock: "str | None" = None
    #: dense-equivalent bytes for the same exchanges (compression baseline)
    upload_dense_bytes: "int | None" = None
    download_dense_bytes: "int | None" = None
    #: bytes that crossed a real OS pipe or TCP socket (process and
    #: socket backends only)
    wire_bytes_up: "int | None" = None
    wire_bytes_down: "int | None" = None
    #: fraction of the makespan the modelled links were busy (virtual only)
    uplink_utilisation: "float | None" = None
    downlink_utilisation: "float | None" = None
    #: server memory: M + all v_k + θ0 (backends with a parameter server)
    server_state_bytes: "int | None" = None
    #: total strategy buffer memory across workers (§5.6.2 accounting)
    worker_state_bytes: "int | None" = None
    #: barrier rounds (sync backend only)
    rounds: "int | None" = None
    #: virtual seconds lost waiting at the barrier (sync backend only)
    straggler_time_s: "float | None" = None
    #: per-worker staleness summary, worker id → {count, mean, p50, p99}
    #: (None on backends without a staleness-observing server, e.g. sync)
    worker_staleness: "dict[int, dict[str, float]] | None" = None
    #: metric snapshots (``type: "metric"`` records) gathered at run end —
    #: the server's staleness/lock-contention series plus anything the
    #: run's registry accumulated (None = backend has no registry)
    metrics: "list[dict] | None" = None
    #: worker exceptions surfaced without crashing the run
    errors: list = field(default_factory=list)

    # -- derived metrics ----------------------------------------------------
    @property
    def throughput(self) -> float:
        """Samples per second of this backend's clock (NaN if unmeasured)."""
        if self.makespan_s is None:
            return float("nan")
        return self.samples_processed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def compression_ratio(self) -> float:
        """Dense-equivalent over actual bytes, both ways (NaN if unmeasured)."""
        if self.upload_dense_bytes is None or self.download_dense_bytes is None:
            return float("nan")
        dense = self.upload_dense_bytes + self.download_dense_bytes
        actual = self.upload_bytes + self.download_bytes
        return dense / actual if actual else 1.0

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> "dict[str, object]":
        """JSON-serialisable view of the result (the run-manifest schema).

        Curves become ``[[x, y], ...]`` row lists, and derived metrics are
        materialised so a manifest is self-contained.
        """
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Curve):
                value = [[float(x), float(y)] for x, y in value.to_rows()]
            elif f.name == "worker_staleness" and value is not None:
                value = {str(w): dict(summary) for w, summary in value.items()}
            out[f.name] = value
        out["throughput"] = self.throughput
        out["compression_ratio"] = self.compression_ratio
        return out


def validate_result(
    result: TrainResult, measures: Iterable[str] = ()
) -> "list[str]":
    """Check ``result`` against the unified schema contract.

    ``measures`` lists optional field names the producing backend claims to
    populate; they must then be non-``None``.  Returns a list of violation
    descriptions (empty = valid) so callers can aggregate across backends.
    """
    problems: list[str] = []
    for name in ("method", "backend"):
        if not getattr(result, name):
            problems.append(f"{name} is empty")
    if result.num_workers < 1:
        problems.append(f"num_workers={result.num_workers} < 1")
    if result.num_shards < 1:
        problems.append(f"num_shards={result.num_shards} < 1")
    if result.total_iterations < 1:
        problems.append(f"total_iterations={result.total_iterations} < 1")
    if result.samples_processed < 1:
        problems.append(f"samples_processed={result.samples_processed} < 1")
    if not len(result.loss_vs_step):
        problems.append("loss_vs_step is empty")
    if math.isnan(result.final_accuracy) or not 0.0 <= result.final_accuracy <= 1.0:
        problems.append(f"final_accuracy={result.final_accuracy} outside [0, 1]")
    if math.isnan(result.final_loss):
        problems.append("final_loss is NaN")
    if result.upload_bytes <= 0 or result.download_bytes <= 0:
        problems.append("byte accounting missing (upload/download_bytes <= 0)")
    if not math.isnan(result.mean_staleness) and result.mean_staleness < 0:
        problems.append(f"mean_staleness={result.mean_staleness} < 0")
    for name in ("staleness_p50", "staleness_p99"):
        value = getattr(result, name)
        if not math.isnan(value) and value < 0:
            problems.append(f"{name}={value} < 0")
    if (
        not math.isnan(result.staleness_p50)
        and not math.isnan(result.staleness_p99)
        and result.staleness_p99 < result.staleness_p50
    ):
        problems.append(
            f"staleness_p99={result.staleness_p99} < staleness_p50={result.staleness_p50}"
        )
    if result.clock not in (None, "wall", "virtual"):
        problems.append(f"clock={result.clock!r} not in (None, 'wall', 'virtual')")
    if result.makespan_s is not None:
        if result.makespan_s <= 0:
            problems.append(f"makespan_s={result.makespan_s} <= 0")
        if result.clock is None:
            problems.append("makespan_s measured but clock domain unset")
    for name in measures:
        if getattr(result, name) is None:
            problems.append(f"backend claims to measure {name!r} but it is None")
    return problems
