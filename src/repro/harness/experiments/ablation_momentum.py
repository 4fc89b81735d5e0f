"""§5.4 ablation — momentum at high worker counts.

The paper: "we reduce the momentum from 0.7 to 0.3 in the experiments of 32
workers. Surprisingly, the test accuracy increases to 93.7%."  This bench
sweeps the momentum coefficient for DGS at a high worker count and shows
the same non-monotone pattern: large momentum destabilises stale updates,
small momentum restores (and can exceed) the 0.7 accuracy.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import get_workload
from ..report import ExperimentReport
from .common import mean_accuracy, scaled_batch

__all__ = ["run"]

MOMENTA = (0.3, 0.45, 0.6, 0.7)


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    num_workers = 4 if fast else 16
    if fast:
        seeds = seeds[:1]
    wl = get_workload("cifar10")
    bs = scaled_batch(num_workers)

    report = ExperimentReport(
        experiment_id="Sec 5.4 (momentum)",
        title=f"DGS accuracy vs momentum at {num_workers} workers",
        headers=("Momentum", "Top-1 Accuracy"),
    )
    accs = {}
    for m in MOMENTA:
        hyper = replace(wl.hyper, momentum=m)
        acc, std = mean_accuracy("dgs", wl, num_workers, seeds, fast, batch_size=bs, hyper=hyper)
        report.add_row(f"{m:.2f}", f"{100 * acc:.2f}% ± {100 * std:.2f}")
        accs[m] = 100 * acc
    best_low = max(acc for m, acc in accs.items() if m <= 0.45)
    report.claim("the best momentum ≤ 0.45 ≥ momentum 0.7 − 0.5 pt", best_low >= accs[0.7] - 0.5)
    report.add_note(
        "Expected shape: accuracy degrades as momentum grows past ~0.45 at high worker "
        "counts (asynchrony adds implicit momentum — Mitliagkas et al., cited as [19])."
    )
    return report
