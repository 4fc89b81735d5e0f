"""Table 2 — final top-1 accuracy of all five methods, both datasets, 4 workers."""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from .common import METHOD_LABELS, mean_accuracy

__all__ = ["run"]

PAPER_ROWS = [
    ("Cifar10", "MSGD", 1, "93.08%"),
    ("Cifar10", "ASGD", 4, "90.74%"),
    ("Cifar10", "GD-async", 4, "92.01%"),
    ("Cifar10", "DGC-async", 4, "92.64%"),
    ("Cifar10", "DGS", 4, "92.91%"),
    ("ImageNet", "MSGD", 1, "69.4%"),
    ("ImageNet", "ASGD", 4, "66.68%"),
    ("ImageNet", "GD-async", 4, "66.26%"),
    ("ImageNet", "DGC-async", 4, "68.37%"),
    ("ImageNet", "DGS", 4, "69.0%"),
]


def run(fast: bool = False, seeds: tuple[int, ...] = (0, 1)) -> ExperimentReport:
    if fast:
        seeds = seeds[:1]
    report = ExperimentReport(
        experiment_id="Table 2",
        title="Results of ResNet-18 stand-in on synthetic Cifar10 and ImageNet",
        headers=("Dataset", "Training Method", "Workers in total", "Top-1 Accuracy"),
        paper_rows=PAPER_ROWS,
    )
    cifar: dict[str, float] = {}  # method -> accuracy (pts)
    for wl_name, pretty in (("cifar10", "Cifar10"), ("imagenet", "ImageNet")):
        wl = get_workload(wl_name)
        for method in ("msgd", "asgd", "gd_async", "dgc_async", "dgs"):
            workers = 1 if method == "msgd" else 4
            acc, std = mean_accuracy(method, wl, workers, seeds, fast)
            report.add_row(pretty, METHOD_LABELS[method], workers, f"{100 * acc:.2f}% ± {100 * std:.2f}")
            if wl_name == "cifar10":
                cifar[method] = 100 * acc
    report.claim("Cifar10: MSGD ≥ DGS − 1 pt", cifar["msgd"] >= cifar["dgs"] - 1.0)
    report.claim("Cifar10: DGS > ASGD − 0.5 pt", cifar["dgs"] > cifar["asgd"] - 0.5)
    report.claim("Cifar10: DGS > GD-async − 0.5 pt", cifar["dgs"] > cifar["gd_async"] - 0.5)
    report.add_note(
        "Expected shape: MSGD best; DGS within ~0.5 pt of MSGD; DGC-async next; "
        "GD-async and ASGD trail (paper Table 2)."
    )
    return report
