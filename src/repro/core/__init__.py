"""The paper's contribution: DGS worker strategies + model-difference server."""

from .arena import LayerArena
from .layerops import (
    add_scaled,
    assign_parameters,
    clone_layers,
    flatten_layers,
    gradients_of,
    layer_shapes,
    parameter_views,
    parameters_of,
    total_nbytes,
    total_size,
    zeros_like_layers,
)
from .methods import METHODS, Hyper, MethodSpec, build_strategy, get_method, method_names
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
    "clone_layers",
    "gradients_of",
    "parameters_of",
    "parameter_views",
    "assign_parameters",
    "add_scaled",
    "total_size",
    "total_nbytes",
    "flatten_layers",
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
    "method_names",
    "get_method",
]
