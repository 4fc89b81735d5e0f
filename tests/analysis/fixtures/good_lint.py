"""Clean twin of ``bad_lint.py`` — zero findings expected.

Demonstrates the compliant idioms: passed-in Generator, None default,
typed allocation, explicit exception, complete ``__all__``, and a
``Tensor.data`` write left to its owner in ``core.layerops``.
"""

import numpy as np

from repro.core.layerops import add_payload

__all__ = ["draw", "touch"]


def draw(rng: np.random.Generator, n=None):
    n = 4 if n is None else n
    try:
        return np.zeros(n, dtype=np.float64) + rng.standard_normal(n)
    except ValueError:
        return None


def touch(params, payload):
    add_payload(params, payload)
    return params
