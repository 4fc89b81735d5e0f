"""Extension ablation — gap-aware staleness damping (the paper's ref. [4]).

The paper cites Barkai et al. ("Gap Aware Mitigation of Gradient
Staleness") as the source of its momentum-ASGD formulation.  This bench
measures what the damping (scale updates by ``1/(staleness+1)``) does to
ASGD and to DGS at a high worker count — complementary to DGS's own answer
to staleness (SAMomentum).
"""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed
from .common import scaled_batch, scaling_hyper

__all__ = ["run"]


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    num_workers = 4 if fast else 16
    wl = get_workload("cifar10")
    seed = seeds[0]
    bs = scaled_batch(num_workers)
    hyper = scaling_hyper(wl, num_workers)

    report = ExperimentReport(
        experiment_id="Ablation (staleness damping)",
        title=f"Gap-aware update damping at {num_workers} workers",
        headers=("Method", "Damping", "Top-1 Accuracy", "Mean staleness"),
    )
    acc = {}
    for method in ("asgd", "dgs"):
        for damping in (False, True):
            r = run_distributed(
                method, wl, num_workers, batch_size=bs, hyper=hyper,
                staleness_damping=damping, fast=fast, seed=seed,
            )
            acc[method, damping] = 100 * r.final_accuracy
            report.add_row(
                method.upper(),
                "on" if damping else "off",
                f"{100 * r.final_accuracy:.2f}%",
                f"{r.mean_staleness:.1f}",
            )
    # SAMomentum is DGS's own answer to staleness; damping still trains but
    # pays ~1/(staleness+1) in effective LR at a fixed budget.
    report.claim("undamped DGS > 85 %", acc["dgs", False] > 85.0)
    report.claim("damped ASGD > 70 %", acc["asgd", True] > 70.0)
    report.claim("undamped DGS > damped DGS", acc["dgs", False] > acc["dgs", True])
    report.add_note(
        "Expected shape: damping softens stale ASGD updates (accuracy change small "
        "at this scale, effective LR drops by ~1/(N)); DGS needs no damping — "
        "SAMomentum already absorbs staleness into per-parameter batch size."
    )
    return report
