"""Figure 3 — learning curves on the ImageNet stand-in with 4 workers."""

from __future__ import annotations

from .fig2_cifar_curves import build_report

__all__ = ["run"]


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)):
    report, finals = build_report(
        "Figure 3",
        "Learning curve of ResNet-18 stand-in on synthetic ImageNet with 4 workers",
        "imagenet",
        num_workers=4,
        fast=fast,
    )
    # Paper: DGS 2.3 pt ahead of ASGD.
    report.claim("DGS ≥ ASGD − 1 pt", finals["DGS"] >= finals["ASGD"] - 1.0)
    return report
