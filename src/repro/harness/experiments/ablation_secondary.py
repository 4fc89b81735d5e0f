"""Ablation — secondary compression on/off (Algorithm 2 lines 5–11).

The paper argues secondary compression matters only when downstream volume
is the bottleneck (many workers or low bandwidth) and costs little accuracy.
This bench measures both sides: accuracy and downstream bytes/makespan at
1 Gbps.
"""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed

__all__ = ["run"]


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    num_workers = 4 if fast else 8
    wl = get_workload("cifar10")
    seed = seeds[0]

    report = ExperimentReport(
        experiment_id="Ablation (secondary compression)",
        title=f"DGS with/without secondary compression, {num_workers} workers, 1 Gbps",
        headers=(
            "Secondary compression",
            "Top-1 Accuracy",
            "Download bytes (model units)",
            "Makespan (min)",
        ),
    )
    model_bytes = None
    acc, down = {}, {}
    for enabled in (False, True):
        r = run_distributed(
            "dgs", wl, num_workers, gbps=1.0, secondary_compression=enabled, fast=fast, seed=seed
        )
        if model_bytes is None:
            model_bytes = r.download_dense_bytes / max(r.total_iterations, 1)
        down_units = r.download_bytes / max(r.download_dense_bytes, 1) * r.total_iterations
        acc[enabled] = 100 * r.final_accuracy
        down[enabled] = down_units
        report.add_row(
            "on (99%)" if enabled else "off",
            f"{100 * r.final_accuracy:.2f}%",
            f"{down_units:.0f}",
            f"{r.makespan_s / 60:.1f}",
        )
    report.claim("secondary compression halves downstream volume or better", down[True] < 0.5 * down[False])
    report.claim("secondary compression costs < 3 pt accuracy", acc[True] > acc[False] - 3.0)
    report.add_note(
        "Expected shape: secondary compression cuts downstream volume by an order of "
        "magnitude (bounding it regardless of worker count) at little accuracy cost."
    )
    return report
