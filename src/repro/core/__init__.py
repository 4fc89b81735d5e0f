"""The paper's contribution: DGS worker strategies + model-difference server."""

from .arena import LayerArena
from .layerops import (
    add_scaled,
    assign_parameters,
    gradients_of,
    layer_shapes,
    parameter_views,
    parameters_of,
    zeros_like_layers,
)
from .methods import METHODS, Hyper, MethodSpec, build_strategy, get_method
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
from .extensions import (
    DGSTernGradStrategy,
    RandomDroppingStrategy,
    TernGradStrategy,
    register_extensions,
)

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
    "register_extensions",
    "MethodSpec",
    "Hyper",
    "METHODS",
    "build_strategy",
    "get_method",
]
