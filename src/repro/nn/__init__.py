"""From-scratch neural-network library (PyTorch substitute — see DESIGN.md)."""

from .conv import Conv2d, GlobalAvgPool2d, MaxPool2d
from .layers import Identity, Linear, ReLU
from .loss import accuracy, cross_entropy
from .module import Module, Parameter, Sequential
from .norm import BatchNorm2d
from .models import MLP, BasicBlock, MicroResNet, SimpleCNN

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "ReLU",
    "Identity",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "cross_entropy",
    "accuracy",
    "MLP",
    "SimpleCNN",
    "BasicBlock",
    "MicroResNet",
]
