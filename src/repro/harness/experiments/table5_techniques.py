"""Table 5 — the techniques matrix, generated from the method registry.

This table is qualitative in the paper; here it is derived from the same
``MethodSpec`` flags that actually configure the trainers, so the matrix is
guaranteed to describe what the code does.
"""

from __future__ import annotations

from ...core.methods import METHODS
from ..report import ExperimentReport

__all__ = ["run"]

PAPER_ROWS = [
    ("ASGD", "N", "N", "N", "N"),
    ("GD-async / DGS without SAMomentum",
     "Model Difference Tracking based Dual-way Gradient Sparsification", "N", "N", "Y"),
    ("DGC-async",
     "Model Difference Tracking based Dual-way Gradient Sparsification",
     "vanilla momentum", "Y", "Y"),
    ("DGS",
     "Model Difference Tracking based Dual-way Gradient Sparsification",
     "SAMomentum", "N", "N"),
]


def run(fast: bool = False, seeds: tuple[int, ...] = ()) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="Table 5",
        title="Techniques in DGS (derived from the method registry)",
        headers=(
            "Method",
            "Gradient Sparsification",
            "Momentum",
            "Momentum Correction",
            "Remaining Gradients Accumulation",
        ),
        paper_rows=PAPER_ROWS,
    )
    for name in ("asgd", "gd_async", "dgc_async", "dgs"):
        spec = METHODS[name]
        report.add_row(
            spec.label,
            spec.sparsification,
            spec.momentum,
            "Y" if spec.momentum_correction else "N",
            "Y" if spec.residual_accumulation else "N",
        )
    dgs, dgc, asgd = METHODS["dgs"], METHODS["dgc_async"], METHODS["asgd"]
    report.claim("DGS uses SAMomentum", dgs.momentum == "SAMomentum")
    report.claim(
        "DGS needs neither momentum correction nor residual accumulation",
        not dgs.momentum_correction and not dgs.residual_accumulation,
    )
    report.claim(
        "DGC-async needs both momentum correction and residual accumulation",
        dgc.momentum_correction and dgc.residual_accumulation,
    )
    report.claim("ASGD sends dense gradients", asgd.sparsification == "N")
    report.add_note("Matrix is generated from repro.core.methods.METHODS — the registry that configures the trainers.")
    return report
