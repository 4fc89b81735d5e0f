"""Ablation — bandwidth crossover: where dual-way sparsification starts to pay.

The paper's Figures 5–6 show the two extremes (10 Gbps ≈ compute-bound,
1 Gbps ≈ communication-bound).  This bench sweeps the bandwidth axis and
reports the throughput advantage of DGS over ASGD at each point, locating
the crossover where the network stops being ASGD's bottleneck.
"""

from __future__ import annotations

from dataclasses import replace

from ...metrics.plots import ascii_plot
from ..config import get_workload, paper_cluster
from ..report import ExperimentReport
from ..runners import run_distributed

__all__ = ["run"]

BANDWIDTHS_GBPS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0)


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    bandwidths = BANDWIDTHS_GBPS[1:4] if fast else BANDWIDTHS_GBPS
    num_workers = 4 if fast else 8
    iters = (10 if fast else 25) * num_workers
    wl = get_workload("cifar10")
    hyper = replace(wl.hyper, ratio=0.01, secondary_ratio=0.01, min_sparse_size=0)
    seed = seeds[0]

    report = ExperimentReport(
        experiment_id="Ablation (bandwidth crossover)",
        title=f"DGS vs ASGD throughput across bandwidths, {num_workers} workers",
        headers=("Bandwidth (Gbps)", "ASGD (samples/s)", "DGS (samples/s)", "DGS advantage"),
    )
    curve = {"ASGD": ([], []), "DGS": ([], [])}
    advantages = []
    for gbps in bandwidths:
        throughputs = {}
        for method in ("asgd", "dgs"):
            r = run_distributed(
                method, wl, num_workers,
                hyper=hyper,
                secondary_compression=method == "dgs",
                total_iterations=iters,
                cluster=paper_cluster(num_workers, gbps, wl.model_factory(seed)(), seed=seed),
                fast=fast, seed=seed,
            )
            throughputs[method] = r.throughput
            curve[method.upper()][0].append(gbps)
            curve[method.upper()][1].append(r.throughput)
        adv = throughputs["dgs"] / max(throughputs["asgd"], 1e-9)
        advantages.append(adv)
        report.add_row(f"{gbps:g}", f"{throughputs['asgd']:.0f}", f"{throughputs['dgs']:.0f}", f"{adv:.1f}x")
    report.figures.append(
        ascii_plot(curve, title="throughput vs bandwidth", xlabel="Gbps", ylabel="samples/s")
    )
    report.claim(f"DGS advantage > 3× at {bandwidths[0]:g} Gbps", advantages[0] > 3.0)
    report.claim(
        f"DGS advantage at {bandwidths[-1]:g} Gbps is under half that at {bandwidths[0]:g} Gbps",
        advantages[-1] < advantages[0] / 2,
    )
    report.add_note(
        "Expected shape: DGS's advantage is largest at low bandwidth and decays "
        "toward 1x once ASGD becomes compute-bound (the crossover sits where "
        "dense model transfer time ≈ per-iteration compute)."
    )
    return report
