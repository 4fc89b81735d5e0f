"""§5.7 decomposition — the effect of each DGS ingredient.

The paper's reading of its own results: GD-async = ASGD + dual-way
sparsification (so GD-async vs ASGD isolates dual-way sparsification), and
DGS = GD-async + SAMomentum (so DGS vs GD-async isolates SAMomentum);
DGC-async vs DGS compares SAMomentum against momentum correction.
"""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from .common import METHOD_LABELS, mean_accuracy

__all__ = ["run"]

COMPARISONS = (
    ("asgd", "gd_async", "dual-way sparsification"),
    ("gd_async", "dgs", "SAMomentum"),
    ("dgc_async", "dgs", "SAMomentum vs momentum correction"),
)


def run(fast: bool = False, seeds: tuple[int, ...] = (0, 1)) -> ExperimentReport:
    if fast:
        seeds = seeds[:1]
    wl = get_workload("cifar10")
    num_workers = 4

    report = ExperimentReport(
        experiment_id="Sec 5.7 (technique decomposition)",
        title=f"Effect of each DGS ingredient ({num_workers} workers)",
        headers=("Method", "Top-1 Accuracy", "Isolates"),
    )
    accs: dict[str, float] = {}
    for method in ("asgd", "gd_async", "dgc_async", "dgs"):
        acc, std = mean_accuracy(method, wl, num_workers, seeds, fast)
        accs[method] = acc
        report.add_row(METHOD_LABELS[method], f"{100 * acc:.2f}% ± {100 * std:.2f}", "")
    for base, treat, what in COMPARISONS:
        delta = 100 * (accs[treat] - accs[base])
        report.add_row(
            f"{METHOD_LABELS[treat]} − {METHOD_LABELS[base]}", f"{delta:+.2f} pts", what
        )
    # DGS = GD-async + SAMomentum, so this isolates SAMomentum.
    report.claim("DGS > GD-async − 0.25 pt", 100 * accs["dgs"] > 100 * accs["gd_async"] - 0.25)
    report.add_note(
        "Expected shape: SAMomentum is the dominant accuracy contribution; dual-way "
        "sparsification alone roughly preserves ASGD-level convergence."
    )
    return report
