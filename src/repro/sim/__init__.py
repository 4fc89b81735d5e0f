"""Event-driven cluster simulator (virtual clock + network model)."""

from .analysis import PerfPrediction, predict
from .cluster import ClusterConfig, ComputeModel
from .engine import SimulatedTrainer
from .network import GBPS, MBPS, LinkModel, SharedLink
from .sync import SynchronousTrainer

__all__ = [
    "predict",
    "PerfPrediction",
    "SynchronousTrainer",
    "LinkModel",
    "SharedLink",
    "GBPS",
    "MBPS",
    "ClusterConfig",
    "ComputeModel",
    "SimulatedTrainer",
]
