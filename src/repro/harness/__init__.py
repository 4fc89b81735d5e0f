"""Experiment harness: workloads, cluster presets, runners, local baseline."""

from .config import (
    RESNET18_WIRE_BYTES,
    WORKLOADS,
    WorkloadSpec,
    get_workload,
    paper_cluster,
)
from .local import LocalResult, LocalTrainer
from .runners import run_distributed, run_msgd

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
]
