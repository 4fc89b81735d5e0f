"""A tree every pillar passes: the CLI's exit-0 check runs over it.

One module, lint-clean (passed-in Generator, typed allocation, complete
``__all__``) and lock-disciplined (guarded state touched only under the
lock).
"""

import threading

import numpy as np

__all__ = ["Store", "draw"]


def draw(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    return np.zeros(n, dtype=np.float64) + rng.standard_normal(n)


class Store:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.state: dict = {}

    def put(self, key: str, value: float) -> None:
        with self._lock:
            self.state[key] = value

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.state)
