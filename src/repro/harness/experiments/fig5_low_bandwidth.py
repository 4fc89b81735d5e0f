"""Figure 5 — training loss vs wall-clock time, 8 workers, 1 Gbps.

The paper trains ResNet-18 on CIFAR-10 over 1 Gbps Ethernet with secondary
compression at 99% and reports DGS finishing in 88 minutes vs 506 minutes
for ASGD — a 5.7× wall-clock speedup.  Here wall-clock is the simulator's
virtual time with the paper-matched cluster preset (46 MB dense wire size,
0.2 s compute per iteration, half-duplex 1 Gbps server link).
"""

from __future__ import annotations

from ...metrics.plots import ascii_plot
from ...metrics.svg import render_svg
from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed

__all__ = [
    "run",
    "r_curve",
]


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    num_workers = 4 if fast else 8
    wl = get_workload("cifar10")
    seed = seeds[0]

    asgd = run_distributed("asgd", wl, num_workers, gbps=1.0, fast=fast, seed=seed)
    # Secondary compression explicitly enabled, ratio 99% (paper §5.5).
    dgs = run_distributed(
        "dgs", wl, num_workers, gbps=1.0, secondary_compression=True, fast=fast, seed=seed
    )

    report = ExperimentReport(
        experiment_id="Figure 5",
        title=f"Time vs training loss on {num_workers} workers with 1 Gbps Ethernet",
        headers=("Method", "Makespan (min)", "Final loss", "Time to loss≤1.0 (min)", "Overall compression"),
        paper_rows=[
            ("ASGD", "506 (total training)", "-", "-", "1×"),
            ("DGS", "88 (total training)", "-", "-", "~50×"),
        ],
    )
    target = 1.0
    rows = []
    for label, r in (("ASGD", asgd), ("DGS", dgs)):
        t_target = r.loss_vs_time.x_reaching(target, mode="below")
        rows.append(
            (
                label,
                f"{r.makespan_s / 60:.1f}",
                f"{r.final_loss:.3f}",
                "n/a" if t_target is None else f"{t_target / 60:.1f}",
                f"{r.compression_ratio:.0f}x",
            )
        )
        report.add_row(*rows[-1])
    speedup = asgd.makespan_s / dgs.makespan_s
    report.add_note(f"DGS wall-clock speedup over ASGD at equal iterations: {speedup:.1f}× (paper: 5.7×).")
    # The exact factor depends on the compute:comm ratio.
    report.claim("DGS finishes the same iterations > 2.5× sooner than ASGD", speedup > 2.5)
    report.figures.append(
        ascii_plot(
            {"ASGD": r_curve(asgd), "DGS": r_curve(dgs)},
            title=f"Figure 5: training loss vs virtual wall-clock time (1 Gbps, {num_workers} workers)",
            xlabel="time (s)",
            ylabel="training loss (EMA)",
        )
    )
    report.svgs["loss_vs_time"] = render_svg(
        {"ASGD": asgd.loss_vs_time, "DGS": dgs.loss_vs_time},
        title=f"Figure 5: loss vs wall-clock (1 Gbps, {num_workers} workers)",
        xlabel="virtual seconds", ylabel="training loss (EMA)", logy=True,
    )
    return report


def r_curve(result):
    return result.loss_vs_time
