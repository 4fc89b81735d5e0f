"""Figure 4 — learning curves on the ImageNet stand-in with 16 workers.

Momentum 0.45 per the paper's §5.1 setting for 16 workers.
"""

from __future__ import annotations

from ..config import get_workload
from .common import scaling_hyper
from .fig2_cifar_curves import build_report

__all__ = ["run"]


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)):
    num_workers = 4 if fast else 16
    wl = get_workload("imagenet")
    report, finals = build_report(
        "Figure 4",
        f"Learning curve of ResNet-18 stand-in on synthetic ImageNet with {num_workers} workers",
        "imagenet",
        num_workers=num_workers,
        fast=fast,
        hyper=scaling_hyper(wl, num_workers),
        # paper's Table 4 keeps the global batch constant across scales
        batch_size=max(8, (wl.batch_size * 4) // num_workers),
    )
    # The 16-worker micro-scale band is tight (EXPERIMENTS.md deviation note).
    report.claim("DGS ≥ ASGD − 2.5 pt", finals["DGS"] >= finals["ASGD"] - 2.5)
    return report
