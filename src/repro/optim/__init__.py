"""Optimisers, LR schedules, and gradient clipping."""

from .clip import clip_by_global_norm, global_norm
from .schedules import ConstantLR, Schedule, StepDecay
from .sgd import SGD

__all__ = [
    "SGD",
    "Schedule",
    "ConstantLR",
    "StepDecay",
    "global_norm",
    "clip_by_global_norm",
]
