"""Closed-form performance model for the asynchronous PS pipeline.

The event-driven simulator measures throughput; this module *predicts* it
from first principles, and a test asserts the two agree.  The steady-state
model for ``N`` homogeneous workers with compute time ``C`` per iteration
and per-exchange link occupancy ``L`` (sum of upload + download transfer
times on the shared half-duplex link, or the max direction on a full-duplex
link):

* **pipeline regime** (``N·rate_one ≤ 1/L``): every worker cycles
  independently; throughput ≈ ``N / (C + L′)`` where ``L′`` is the
  unloaded round-trip communication time;
* **saturated regime**: the shared link admits at most ``1/L`` exchanges
  per second, so throughput caps at ``1/L`` regardless of ``N``.

Speedup over one worker is therefore ``min(N, (C + L′) / L)`` up to
queueing fringe effects — the closed form behind Figure 6's shapes
(docs/simulator.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterConfig

__all__ = ["PerfPrediction", "predict"]


@dataclass(frozen=True)
class PerfPrediction:
    """Predicted steady-state behaviour of one configuration."""

    iteration_time_one_worker_s: float  # unloaded cycle time C + L'
    link_occupancy_per_exchange_s: float  # serial resource time L
    max_update_rate_per_s: float  # 1 / L
    throughput_updates_per_s: float  # min(N/(C+L'), 1/L)
    speedup_vs_one_worker: float
    saturated: bool


def predict(
    cluster: ClusterConfig,
    upload_bytes: float,
    download_bytes: float,
) -> PerfPrediction:
    """Predict throughput/speedup for ``cluster`` and per-exchange sizes.

    ``upload_bytes`` / ``download_bytes`` are the *unscaled* per-message
    sizes (the model applies ``cluster.wire_scale``), e.g. taken from a
    measured ``TrainResult``: ``upload_bytes / total_iterations``.
    """
    if upload_bytes < 0 or download_bytes < 0:
        raise ValueError("message sizes must be non-negative")
    up_t = cluster.uplink.transfer_time(int(upload_bytes * cluster.wire_scale))
    down_t = cluster.downlink.transfer_time(int(download_bytes * cluster.wire_scale))
    # Unloaded round-trip communication the worker waits through.
    round_trip = up_t + down_t + cluster.server_overhead_s
    # Serial resource time per exchange: both directions share one link in
    # half-duplex mode, otherwise the bottleneck direction governs.
    if cluster.duplex == "half":
        occupancy = up_t + down_t
    else:
        occupancy = max(up_t, down_t)
    occupancy = max(occupancy, cluster.server_overhead_s)

    cycle = cluster.compute.mean_s + round_trip
    pipeline_rate = cluster.num_workers / cycle
    cap_rate = 1.0 / occupancy if occupancy > 0 else float("inf")
    throughput = min(pipeline_rate, cap_rate)
    one_worker_rate = 1.0 / cycle
    return PerfPrediction(
        iteration_time_one_worker_s=cycle,
        link_occupancy_per_exchange_s=occupancy,
        max_update_rate_per_s=cap_rate,
        throughput_updates_per_s=throughput,
        speedup_vs_one_worker=throughput / one_worker_rate,
        saturated=cap_rate < pipeline_rate,
    )
