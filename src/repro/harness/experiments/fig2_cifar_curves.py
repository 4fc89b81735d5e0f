"""Figure 2 — learning curves (top-1 accuracy + training loss) on CIFAR-10
stand-in with 4 workers, all five methods."""

from __future__ import annotations

from ...metrics.curves import Curve
from ...metrics.plots import ascii_plot
from ...metrics.svg import render_svg
from ..config import get_workload
from ..report import ExperimentReport
from ..runners import run_distributed, run_msgd
from .common import METHOD_LABELS

__all__ = [
    "collect_curves",
    "build_report",
    "run",
]


def collect_curves(
    workload_name: str,
    num_workers: int,
    fast: bool,
    seed: int = 0,
    hyper=None,
    batch_size: int | None = None,
) -> tuple[dict[str, Curve], dict[str, Curve], dict[str, float]]:
    """Run all five methods; return (acc curves, loss curves, final accs)."""
    wl = get_workload(workload_name)
    bs = batch_size if batch_size is not None else wl.batch_size
    dataset = wl.dataset(fast)
    total_iters = max(1, wl.epochs * dataset.n_train // bs)
    eval_every = max(1, total_iters // 12)

    acc_curves: dict[str, Curve] = {}
    loss_curves: dict[str, Curve] = {}
    finals: dict[str, float] = {}

    msgd = run_msgd(wl, eval_every=eval_every, fast=fast, seed=seed, batch_size=bs)
    acc_curves["MSGD"] = msgd.acc_vs_step
    loss_curves["MSGD"] = msgd.loss_vs_step
    finals["MSGD"] = msgd.final_accuracy
    for method in ("asgd", "gd_async", "dgc_async", "dgs"):
        r = run_distributed(
            method, wl, num_workers, eval_every=eval_every, fast=fast, seed=seed,
            hyper=hyper, batch_size=bs,
        )
        label = METHOD_LABELS[method]
        acc_curves[label] = r.acc_vs_step
        loss_curves[label] = r.loss_vs_step
        finals[label] = r.final_accuracy
    return acc_curves, loss_curves, finals


def build_report(
    experiment_id: str,
    title: str,
    workload_name: str,
    num_workers: int,
    fast: bool,
    hyper=None,
    batch_size: int | None = None,
) -> tuple[ExperimentReport, dict[str, float]]:
    """The report plus each method's final accuracy, in points."""
    acc_curves, loss_curves, finals = collect_curves(
        workload_name, num_workers, fast, hyper=hyper, batch_size=batch_size
    )
    report = ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        headers=("Method", "Final Top-1 Accuracy"),
    )
    for label, acc in finals.items():
        report.add_row(label, f"{100 * acc:.2f}%")
    report.figures.append(
        ascii_plot(acc_curves, title=f"{experiment_id}a: top-1 accuracy vs iteration",
                   xlabel="server iteration", ylabel="top-1 accuracy")
    )
    report.figures.append(
        ascii_plot(loss_curves, title=f"{experiment_id}b: training loss vs iteration",
                   xlabel="server iteration", ylabel="training loss (EMA)")
    )
    report.svgs["accuracy"] = render_svg(
        acc_curves, title=f"{experiment_id}a: top-1 accuracy",
        xlabel="server iteration", ylabel="top-1 accuracy",
    )
    report.svgs["loss"] = render_svg(
        loss_curves, title=f"{experiment_id}b: training loss",
        xlabel="server iteration", ylabel="training loss (EMA)", logy=True,
    )
    report.add_note(
        "Expected shape: DGS tracks MSGD closely; DGC-async converges slightly slower "
        "but close; GD-async and ASGD converge to visibly worse accuracy."
    )
    return report, {label: 100 * acc for label, acc in finals.items()}


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    report, finals = build_report(
        "Figure 2",
        "Learning curve of ResNet-18 stand-in on synthetic Cifar10 with 4 workers",
        "cifar10",
        num_workers=4,
        fast=fast,
    )
    # Paper: DGS within 0.2 pt of MSGD.
    report.claim("DGS ≥ MSGD − 2.5 pt", finals["DGS"] >= finals["MSGD"] - 2.5)
    return report
