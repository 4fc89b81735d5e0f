"""High-level experiment runners shared by benches, examples, and tests."""

from __future__ import annotations

from dataclasses import replace

from ..core.methods import Hyper
from ..exec import Backend, RunConfig, TrainResult, Trainer, get_backend
from ..harness.local import LocalResult, LocalTrainer
from ..sim.cluster import ClusterConfig
from .config import WorkloadSpec, paper_cluster

__all__ = ["run_distributed", "run_msgd"]


def run_distributed(
    method: str,
    workload: WorkloadSpec,
    num_workers: int,
    gbps: float = 10.0,
    epochs: int | None = None,
    batch_size: int | None = None,
    total_iterations: int | None = None,
    hyper: Hyper | None = None,
    secondary_compression: bool = False,
    cluster: ClusterConfig | None = None,
    eval_every: int | None = None,
    staleness_damping: bool = False,
    fast: bool = False,
    backend: "str | Backend | None" = None,
    seed: int = 0,
) -> TrainResult:
    """One distributed run of ``method`` on ``workload``, on any backend.

    ``backend`` names an execution backend of ``repro.exec.BACKENDS``
    (``"process"`` | ``"socket"`` | ``"simulated"`` | ``"sync"``);
    None uses the ambient default (``"simulated"`` unless
    changed with ``repro.exec.use_backend``).  The paper-shaped cluster
    (``gbps``, ResNet-18 wire scaling) only applies to the virtual-clock
    backends.  Spans go to the ambient tracer (``repro.obs.use_tracer``,
    or the CLI's ``--trace``).
    """
    dataset = workload.dataset(fast)
    model_factory = workload.model_factory(seed=seed)
    bs = batch_size if batch_size is not None else workload.batch_size
    total_epochs = epochs if epochs is not None else workload.epochs
    total_iters = (
        total_iterations
        if total_iterations is not None
        else max(1, (total_epochs * dataset.n_train) // bs)
    )
    h = hyper if hyper is not None else workload.hyper
    h = replace(h, iterations_per_epoch=max(1, total_iters // max(total_epochs, 1) // num_workers))
    exec_backend = get_backend(backend)
    if cluster is None and exec_backend.clock == "virtual":
        cluster = paper_cluster(num_workers, gbps, model_factory(), seed=seed)
    config = RunConfig(
        method,
        model_factory,
        dataset,
        num_workers=num_workers,
        batch_size=bs,
        total_iterations=total_iters,
        hyper=h,
        schedule=workload.schedule(total_epochs, lr=h.lr),
        secondary_compression=secondary_compression,
        staleness_damping=staleness_damping,
        seed=seed,
        cluster=cluster,
        eval_every=eval_every,
    )
    return Trainer(config, exec_backend).run()


def run_msgd(
    workload: WorkloadSpec,
    epochs: int | None = None,
    batch_size: int | None = None,
    eval_every: int | None = None,
    fast: bool = False,
    seed: int = 0,
) -> LocalResult:
    """Single-node momentum-SGD baseline on ``workload``."""
    dataset = workload.dataset(fast)
    bs = batch_size if batch_size is not None else workload.batch_size
    total_epochs = epochs if epochs is not None else workload.epochs
    total_iters = max(1, (total_epochs * dataset.n_train) // bs)
    trainer = LocalTrainer(
        workload.model_factory(seed=seed),
        dataset,
        batch_size=bs,
        total_iterations=total_iters,
        lr=workload.hyper.lr,
        momentum=workload.hyper.momentum,
        schedule=workload.schedule(total_epochs),
        eval_every=eval_every,
        seed=seed,
    )
    return trainer.run()
