"""§6 future-work ablation — DGS combined with other compressors.

"the combination of DGS and other compression approaches (e.g. TernGrad,
randomly coordinates dropping) can be considered" — implemented in
``repro.core.extensions``; this bench measures the accuracy/volume
trade-off of each combination.
"""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed

__all__ = ["run"]

METHODS = ("asgd", "dgs", "dgs_terngrad", "terngrad", "qsgd", "random_dropping")


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    wl = get_workload("cifar10")
    seed = seeds[0]

    report = ExperimentReport(
        experiment_id="Sec 6 (combinations)",
        title="DGS combined with quantisation / random dropping (4 workers)",
        headers=("Method", "Top-1 Accuracy", "Upload compression", "Overall compression"),
    )
    acc, up = {}, {}
    for method in METHODS:
        r = run_distributed(method, wl, 4, fast=fast, seed=seed)
        acc[method] = 100 * r.final_accuracy
        up[method] = r.upload_dense_bytes / max(r.upload_bytes, 1)
        report.add_row(
            method,
            f"{100 * r.final_accuracy:.2f}%",
            f"{up[method]:.0f}x",
            f"{r.compression_ratio:.0f}x",
        )
    report.claim("dgs_terngrad compresses uploads harder than DGS", up["dgs_terngrad"] > up["dgs"])
    report.claim("dgs_terngrad accuracy > DGS − 6 pt", acc["dgs_terngrad"] > acc["dgs"] - 6.0)
    report.add_note(
        "Expected shape: dgs_terngrad pushes upload compression well past plain DGS "
        "(2-bit values) at a modest accuracy cost; unbiased random dropping trails "
        "magnitude-based selection in accuracy."
    )
    return report
