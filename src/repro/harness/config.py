"""Workload and cluster presets for the paper's experiments.

Workloads pair a synthetic dataset with a model (DESIGN.md §2 substitutions)
and carry the paper's hyper-parameter conventions: momentum 0.7, Top-1%
sparsification, LR ×0.1 step decay at 60%/80% of training (the paper decays
at 30/40 of 50 CIFAR epochs and 30/60 of 90 ImageNet epochs).

Cluster presets mirror the testbed of §5.2: per-iteration compute time of a
V100 ResNet-18 step (~0.2 s), a shared server link at 10 or 1 Gbps, and a
``wire_scale`` that makes the dense model cost 46 MB on the wire — the
ResNet-18 size the paper quotes in §5.6.2 — so comm:compute ratios match
the deployment even though the compute model is micro-sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.methods import Hyper
from ..data.synthetic import Dataset, make_blobs, synthetic_cifar10, synthetic_imagenet
from ..nn.models import MLP, MicroResNet, SimpleCNN
from ..nn.module import Module
from ..optim.schedules import Schedule, StepDecay
from ..sim.cluster import ClusterConfig, ComputeModel
from ..sim.network import LinkModel

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "get_workload",
    "paper_cluster",
    "RESNET18_WIRE_BYTES",
]

#: dense wire size of ResNet-18 (46 MB, §5.6.2 footnote)
RESNET18_WIRE_BYTES = 46 * 1024 * 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """A dataset + model + training-length recipe."""

    name: str
    make_dataset: Callable[[int], Dataset]  # arg: scale divisor (1=full)
    make_model: Callable[[int], Module]  # arg: seed
    batch_size: int
    epochs: int
    hyper: Hyper

    def dataset(self, fast: bool = False) -> Dataset:
        return self.make_dataset(4 if fast else 1)

    def model_factory(self, seed: int = 0) -> Callable[[], Module]:
        return lambda: self.make_model(seed)

    def schedule(self, epochs: int | None = None, lr: float | None = None) -> Schedule:
        """The paper's step schedule, scaled to this run's epoch budget."""
        total = self.epochs if epochs is None else epochs
        base = self.hyper.lr if lr is None else lr
        return StepDecay(base, milestones=(0.6 * total, 0.8 * total), factor=0.1)

    def total_iterations(self, num_workers: int, epochs: int | None = None, fast: bool = False) -> int:
        """Global iteration count covering ``epochs`` passes over the data."""
        ds = self.dataset(fast)
        total = self.epochs if epochs is None else epochs
        return max(1, (total * ds.n_train) // self.batch_size)


def _cifar_dataset(div: int) -> Dataset:
    return synthetic_cifar10(n_samples=4000 // div, size=8, difficulty=4.0, seed=7)


def _imagenet_dataset(div: int) -> Dataset:
    return synthetic_imagenet(
        n_samples=6000 // div, num_classes=25, size=8, difficulty=4.5, seed=11
    )


def _blobs_dataset(div: int) -> Dataset:
    return make_blobs(n_samples=1600 // div, num_classes=10, dim=32, sep=1.6, noise=1.1, seed=3)


WORKLOADS: dict[str, WorkloadSpec] = {
    # Fast unit-test workload: linear-ish problem, MLP.
    "blobs": WorkloadSpec(
        name="blobs",
        make_dataset=_blobs_dataset,
        make_model=lambda seed: MLP(32, (48,), 10, seed=seed),
        batch_size=32,
        epochs=4,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.01),
    ),
    # CIFAR-10 stand-in with a small CNN (default for tables/figures).
    # Ratio 0.05: the paper's R=1% of 11M params keeps the heavy tail of the
    # gradient; on a ~7k-param model the same regime needs R≈5% (DESIGN.md §2).
    "cifar10": WorkloadSpec(
        name="cifar10",
        make_dataset=_cifar_dataset,
        make_model=lambda seed: SimpleCNN(3, 10, width=16, seed=seed),
        batch_size=32,
        epochs=6,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.05, secondary_ratio=0.05),
    ),
    # CIFAR-10 stand-in with the ResNet-18-shaped model (slower, Fig. 2).
    "cifar10-resnet": WorkloadSpec(
        name="cifar10-resnet",
        make_dataset=_cifar_dataset,
        make_model=lambda seed: MicroResNet(3, 10, widths=(12, 24), blocks_per_stage=1, seed=seed),
        batch_size=32,
        epochs=6,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.05, secondary_ratio=0.05),
    ),
    # ImageNet stand-in: more classes, more data, wider model.
    "imagenet": WorkloadSpec(
        name="imagenet",
        make_dataset=_imagenet_dataset,
        make_model=lambda seed: SimpleCNN(3, 25, width=16, seed=seed),
        batch_size=32,
        epochs=6,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.05, secondary_ratio=0.05),
    ),
}


def get_workload(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None


def paper_cluster(
    num_workers: int,
    gbps: float,
    model: Module,
    compute_mean_s: float = 0.2,
    jitter: float = 0.1,
    heterogeneity: float = 0.05,
    seed: int = 0,
) -> ClusterConfig:
    """Cluster preset mirroring §5.2's testbed at ``gbps`` Gb/s.

    ``wire_scale`` is chosen so that this model's dense wire size equals
    ResNet-18's 46 MB; the server link is half-duplex (see ClusterConfig).
    """
    dense_bytes = 4 * model.num_parameters()
    return ClusterConfig(
        num_workers=num_workers,
        compute=ComputeModel(mean_s=compute_mean_s, jitter=jitter, heterogeneity=heterogeneity),
        uplink=LinkModel.gbps(gbps),
        downlink=LinkModel.gbps(gbps),
        wire_scale=RESNET18_WIRE_BYTES / dense_bytes,
        duplex="half",
        seed=seed,
    )
