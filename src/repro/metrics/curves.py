"""Learning-curve containers (loss/accuracy vs iteration or virtual time)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Curve"]


@dataclass
class Curve:
    """A named (x, y) series, e.g. training loss vs server timestamp."""

    name: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        if self.xs and x < self.xs[-1]:
            raise ValueError(f"x values must be nondecreasing (got {x} after {self.xs[-1]})")
        self.xs.append(float(x))
        self.ys.append(float(y))

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def final(self) -> float:
        if not self.ys:
            raise ValueError(f"curve {self.name!r} is empty")
        return self.ys[-1]

    def best(self, mode: str = "max") -> float:
        if not self.ys:
            raise ValueError(f"curve {self.name!r} is empty")
        return max(self.ys) if mode == "max" else min(self.ys)

    def y_at(self, x: float) -> float:
        """Linear interpolation of y at position x."""
        return float(np.interp(x, self.xs, self.ys))

    def x_reaching(self, target: float, mode: str = "below") -> float | None:
        """First x where y crosses ``target`` (``below`` for loss targets)."""
        for x, y in zip(self.xs, self.ys):
            if (mode == "below" and y <= target) or (mode == "above" and y >= target):
                return x
        return None

    def resample(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(xs, self.xs, self.ys)

    def to_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.ys))
