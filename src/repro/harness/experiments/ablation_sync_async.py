"""§1/§6 ablation — synchronous vs asynchronous training on one simulator.

Two claims framed by the paper's introduction and conclusion:

* §1: SSGD "may suffer from worker lags" — with heterogeneous workers the
  barrier wastes straggler time, so async throughput wins;
* §6: "SAMomentum is a general design and can be used to design new
  synchronization training approaches" — running the DGS worker strategy
  under the synchronous barrier must still train well.
"""

from __future__ import annotations

from ...exec import RunConfig, train
from ...sim.cluster import ClusterConfig, ComputeModel
from ...sim.network import LinkModel
from ..config import get_workload
from ..report import ExperimentReport

__all__ = ["run"]


def _cluster(num_workers: int, heterogeneity: float, model, seed: int = 0) -> ClusterConfig:
    from ..config import RESNET18_WIRE_BYTES

    return ClusterConfig(
        num_workers=num_workers,
        compute=ComputeModel(mean_s=0.2, jitter=0.1, heterogeneity=heterogeneity),
        uplink=LinkModel.gbps(10),
        downlink=LinkModel.gbps(10),
        wire_scale=RESNET18_WIRE_BYTES / (4 * model.num_parameters()),
        duplex="half",
        seed=seed,
    )


def run(fast: bool = False, seeds: tuple[int, ...] = (0,)) -> ExperimentReport:
    wl = get_workload("cifar10")
    seed = seeds[0]
    num_workers = 4 if fast else 8
    dataset = wl.dataset(fast)
    epochs = wl.epochs
    total_iters = max(1, epochs * dataset.n_train // wl.batch_size)
    factory = wl.model_factory(seed)

    report = ExperimentReport(
        experiment_id="Sec 1/6 (sync vs async)",
        title=f"SSGD barrier vs asynchronous training, {num_workers} workers",
        headers=("Cluster", "Method", "Top-1 Accuracy", "Throughput (samples/s)", "Barrier loss (s/worker)"),
    )
    acc, thr = {}, {}  # (cluster, mode) -> value
    stragglers = "stragglers (×2 spread)"
    for label, het in (("homogeneous", 0.0), (stragglers, 0.6)):
        cluster = _cluster(num_workers, het, factory(), seed)
        # Same RunConfig on two backends: the barrier's rounds() slices the
        # identical global budget into num_workers-gradient rounds (Eq. 7).
        for mode, method, backend in (
            ("SSGD", "asgd", "sync"),
            ("sync-SAM (§6)", "dgs", "sync"),
            ("ASGD", "asgd", "simulated"),
            ("DGS", "dgs", "simulated"),
        ):
            config = RunConfig(
                method,
                factory,
                dataset,
                num_workers=num_workers,
                batch_size=wl.batch_size,
                total_iterations=total_iters,
                hyper=wl.hyper,
                schedule=wl.schedule(epochs),
                seed=seed,
                cluster=cluster,
            )
            r = train(config, backend=backend)
            barrier = f"{r.straggler_time_s:.1f}" if backend == "sync" else "-"
            acc[label, mode], thr[label, mode] = 100 * r.final_accuracy, r.throughput
            report.add_row(label, mode, f"{100 * r.final_accuracy:.2f}%", f"{r.throughput:.0f}", barrier)
    report.claim(
        "with stragglers, ASGD outruns the SSGD barrier", thr[stragglers, "ASGD"] > thr[stragglers, "SSGD"]
    )
    report.claim(
        "with stragglers, DGS outruns sync-SAM", thr[stragglers, "DGS"] > thr[stragglers, "sync-SAM (§6)"]
    )
    report.claim(
        "with stragglers, sync-SAM accuracy > SSGD − 3 pt",
        acc[stragglers, "sync-SAM (§6)"] > acc[stragglers, "SSGD"] - 3.0,
    )
    report.add_note(
        "Expected shape: with stragglers, asynchronous throughput beats the barrier "
        "(§1); the synchronous SAMomentum variant trains to comparable accuracy (§6)."
    )
    return report
