"""Weight initialisation schemes.

Every scheme returns :data:`~repro.autograd.DEFAULT_DTYPE` (float32) arrays.
The random ones draw from the generator's double stream and round, so a seed
names the same weights at every width (``Module.astype`` widens them back
exactly).
"""

from __future__ import annotations

import math

import numpy as np

from ..autograd import DEFAULT_DTYPE

__all__ = ["kaiming_uniform", "zeros", "ones"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # Conv: (F, C, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape))
    return fan_in, fan_out


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming uniform init (the ResNet default)."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)
