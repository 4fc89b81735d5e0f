"""Table 3 — CIFAR-10 scaling sweep: 1→32 workers, batch scaled down."""

from __future__ import annotations

from ..config import get_workload
from ..report import ExperimentReport
from .common import METHOD_LABELS, mean_accuracy, scaled_batch, scaling_hyper

__all__ = ["run"]

PAPER_ROWS = [
    (1, 256, "MSGD", "93.08%", "-"),
    (1, 256, "ASGD", "91.54%", "-1.54%"),
    (1, 256, "GD-async", "92.15%", "-0.93%"),
    (1, 256, "DGC-async", "92.75%", "-0.33%"),
    (1, 256, "DGS", "92.97%", "-0.11%"),
    (4, 128, "ASGD", "90.7%", "-2.38%"),
    (4, 128, "GD-async", "92.01%", "-1.07%"),
    (4, 128, "DGC-async", "92.64%", "-0.44%"),
    (4, 128, "DGS", "92.91%", "-0.17%"),
    (8, 64, "ASGD", "90.46%", "-2.62%"),
    (8, 64, "GD-async", "91.81%", "-1.27%"),
    (8, 64, "DGC-async", "92.37%", "-0.71%"),
    (8, 64, "DGS", "93.32%", "+0.24%"),
    (16, 32, "ASGD", "90.53%", "-3.01%"),
    (16, 32, "GD-async", "91.43%", "-1.65%"),
    (16, 32, "DGC-async", "92.28%", "-0.80%"),
    (16, 32, "DGS", "92.98%", "-0.10%"),
    (32, 16, "ASGD", "88.36%", "-4.71%"),
    (32, 16, "GD-async", "91%", "-2.08%"),
    (32, 16, "DGC-async", "91.86%", "-1.22%"),
    (32, 16, "DGS", "92.69%", "-0.39%"),
]

WORKER_COUNTS = (1, 4, 8, 16, 32)


def run(fast: bool = False, seeds: tuple[int, ...] = (0, 1)) -> ExperimentReport:
    worker_counts = (1, 4, 8) if fast else WORKER_COUNTS
    if fast:
        seeds = seeds[:1]
    wl = get_workload("cifar10")
    report = ExperimentReport(
        experiment_id="Table 3",
        title="ResNet-18 stand-in on synthetic Cifar10, scaling sweep",
        headers=("Workers in total", "Batchsize per worker", "Training Method", "Top-1 Accuracy", "Δ vs MSGD"),
        paper_rows=PAPER_ROWS,
    )
    # MSGD reference at the workload's default batch: Table 3's batch-halving
    # protocol changes the iteration budget per row (epochs are fixed), and a
    # batch-128 single-node run is iteration-starved at micro scale.  The
    # reference therefore uses the calibrated batch so Δ measures the
    # asynchrony/compression penalty, not the iteration budget.
    msgd_acc, _ = mean_accuracy("msgd", wl, 1, seeds, fast)
    report.add_row(1, wl.batch_size, "MSGD", f"{100 * msgd_acc:.2f}%", "-")
    accs: dict[str, float] = {}  # method -> accuracy (pts) at the largest scale
    for n in worker_counts:
        bs = scaled_batch(n)
        hyper = scaling_hyper(wl, n)
        for method in ("asgd", "gd_async", "dgc_async", "dgs"):
            acc, _ = mean_accuracy(method, wl, n, seeds, fast, batch_size=bs, hyper=hyper)
            delta = 100 * (acc - msgd_acc)
            report.add_row(n, bs, METHOD_LABELS[method], f"{100 * acc:.2f}%", f"{delta:+.2f}%")
            accs[method] = 100 * acc
    # At the largest scale ASGD has degraded the most.
    n = worker_counts[-1]
    report.claim(f"{n} workers: ASGD ≤ DGS + 0.5 pt", accs["asgd"] <= accs["dgs"] + 0.5)
    report.claim(f"{n} workers: ASGD ≤ DGC-async + 0.5 pt", accs["asgd"] <= accs["dgc_async"] + 0.5)
    report.add_note(
        "Expected shape: every method degrades as workers grow; ASGD degrades most, "
        "DGS least (paper: −4.71% vs −0.39% at 32 workers)."
    )
    report.add_note(
        "Momentum follows the paper's practice (reduced at scale, §5.1/§5.4); "
        "LR halved at 32 workers for the smaller per-worker batch (DESIGN.md §2)."
    )
    report.add_note(
        "Micro-scale caveat: with epochs fixed, halving the batch doubles the "
        "iteration count, which inflates mid-scale rows relative to the paper's "
        "long-run regime; compare methods within a row, and rows against MSGD."
    )
    return report
