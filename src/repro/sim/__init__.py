"""Cost models of the virtual cluster: compute times, links, and the
closed-form throughput prediction.

The event-driven engines that run on them live in :mod:`repro.exec`
(``SimulatedTrainer``, ``SynchronousTrainer``).
"""

from .analysis import PerfPrediction, predict
from .cluster import ClusterConfig, ComputeModel
from .network import GBPS, MBPS, LinkModel, SharedLink

__all__ = [
    "predict",
    "PerfPrediction",
    "LinkModel",
    "SharedLink",
    "GBPS",
    "MBPS",
    "ClusterConfig",
    "ComputeModel",
]
