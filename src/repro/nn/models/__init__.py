"""Reference model zoo used by the experiments."""

from .mlp import MLP
from .cnn import SimpleCNN
from .resnet import BasicBlock, MicroResNet

__all__ = [
    "MLP",
    "SimpleCNN",
    "BasicBlock",
    "MicroResNet",
]
