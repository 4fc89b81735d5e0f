"""Experiment harness: workloads, cluster presets, runners, local baseline."""

from .config import (
    RESNET18_WIRE_BYTES,
    WORKLOADS,
    WorkloadSpec,
    get_workload,
    paper_cluster,
)
from .local import LocalResult, LocalTrainer
from .runners import DISTRIBUTED_METHODS, run_all_methods, run_distributed, run_msgd
from .sweep import SweepPoint, sweep

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "get_workload",
    "paper_cluster",
    "RESNET18_WIRE_BYTES",
    "LocalTrainer",
    "LocalResult",
    "run_distributed",
    "run_msgd",
    "run_all_methods",
    "DISTRIBUTED_METHODS",
    "sweep",
    "SweepPoint",
]
