"""The paper's contribution: DGS worker strategies + model-difference server."""

from .arena import LayerArena
from .extensions import DGSTernGradStrategy, RandomDroppingStrategy, TernGradStrategy
from .layerops import (
    add_scaled,
    assign_parameters,
    gradients_of,
    layer_shapes,
    parameter_views,
    parameters_of,
    zeros_like_layers,
)
from .methods import METHODS, Hyper, MethodSpec, get_method
from .partition import PartitionMap
from .strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
    SparsityRamp,
    WorkerStrategy,
)
from .tracker import ModelDifferenceTracker

__all__ = [
    "LayerArena",
    "layer_shapes",
    "zeros_like_layers",
    "gradients_of",
    "parameters_of",
    "parameter_views",
    "assign_parameters",
    "add_scaled",
    "WorkerStrategy",
    "DenseStrategy",
    "GradientDroppingStrategy",
    "DGCStrategy",
    "SAMomentumStrategy",
    "SparsityRamp",
    "ModelDifferenceTracker",
    "PartitionMap",
    "TernGradStrategy",
    "RandomDroppingStrategy",
    "DGSTernGradStrategy",
    "MethodSpec",
    "Hyper",
    "METHODS",
    "get_method",
]
