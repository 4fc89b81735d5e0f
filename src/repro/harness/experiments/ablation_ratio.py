"""Ablation — sparsification ratio R sweep for DGS.

The paper fixes R=1% ("of course some more advanced threshold selection
methods can be used", §4.1).  This bench exposes the accuracy/compression
trade-off around that operating point.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed

__all__ = ["run"]

RATIOS = (0.01, 0.02, 0.05, 0.10, 0.25)


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    ratios = RATIOS[:3] if fast else RATIOS
    wl = get_workload("cifar10")
    seed = seeds[0]

    report = ExperimentReport(
        experiment_id="Ablation (sparsity ratio)",
        title="DGS accuracy and compression vs send ratio R (4 workers)",
        headers=("R", "Top-1 Accuracy", "Upload compression", "Overall compression"),
    )
    accs, ups = [], []
    for ratio in ratios:
        hyper = replace(wl.hyper, ratio=ratio, secondary_ratio=ratio)
        r = run_distributed("dgs", wl, 4, hyper=hyper, fast=fast, seed=seed)
        up_ratio = r.upload_dense_bytes / max(r.upload_bytes, 1)
        accs.append(100 * r.final_accuracy)
        ups.append(up_ratio)
        report.add_row(
            f"{100 * ratio:g}%",
            f"{100 * r.final_accuracy:.2f}%",
            f"{up_ratio:.0f}x",
            f"{r.compression_ratio:.0f}x",
        )
    report.claim("upload compression grows as R shrinks", ups == sorted(ups, reverse=True))
    report.claim("every R trains past 70 %", min(accs) > 70.0)
    report.add_note(
        "Expected shape: accuracy is flat for moderate R then sags at very small R "
        "(per-parameter update intervals grow too long at micro-model scale); "
        "compression scales ~1/(2R) upstream (COO doubles per-element cost)."
    )
    return report
