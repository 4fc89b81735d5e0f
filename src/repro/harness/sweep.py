"""Grid sweeps over hyper-parameters / cluster settings.

A light utility used by ablation benches and offered to downstream users:
declare axes (any ``Hyper`` field, worker count, bandwidth, method), get
back one result row per grid point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.methods import Hyper
from ..exec.result import TrainResult
from .config import WorkloadSpec
from .runners import run_distributed

__all__ = ["SweepPoint", "sweep"]

_HYPER_FIELDS = {f.name for f in fields(Hyper)}
_RUNNER_AXES = {"method", "num_workers", "gbps", "batch_size", "epochs", "seed",
                "secondary_compression", "staleness_damping", "total_iterations"}


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its simulation result."""

    settings: "Mapping[str, Any]"
    result: TrainResult

    def __getitem__(self, key: str) -> Any:
        return self.settings[key]


def sweep(
    workload: WorkloadSpec,
    axes: "Mapping[str, Sequence[Any]]",
    base: "Mapping[str, Any] | None" = None,
    fast: bool = False,
    on_point: "Callable[[SweepPoint], None] | None" = None,
) -> list[SweepPoint]:
    """Run the full cartesian grid of ``axes`` over ``workload``.

    Axis names may be ``Hyper`` fields (``ratio``, ``momentum``, …) or
    runner arguments (``method``, ``num_workers``, ``gbps``, ``batch_size``,
    ``epochs``, ``seed``, ``secondary_compression``, ``staleness_damping``,
    ``total_iterations``).  ``base`` provides fixed settings; ``on_point``
    is invoked after each run (progress reporting).
    """
    base = dict(base or {})
    unknown = (set(axes) | set(base)) - _HYPER_FIELDS - _RUNNER_AXES
    if unknown:
        raise ValueError(f"unknown sweep axes: {sorted(unknown)}")

    names = list(axes)
    points: list[SweepPoint] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        settings = {**base, **dict(zip(names, combo))}
        hyper_overrides = {k: v for k, v in settings.items() if k in _HYPER_FIELDS}
        runner_kwargs = {k: v for k, v in settings.items() if k in _RUNNER_AXES}
        method = runner_kwargs.pop("method", "dgs")
        num_workers = runner_kwargs.pop("num_workers", 4)
        hyper = replace(workload.hyper, **hyper_overrides) if hyper_overrides else None
        result = run_distributed(
            method, workload, num_workers, hyper=hyper, fast=fast, **runner_kwargs
        )
        point = SweepPoint(settings={"method": method, "num_workers": num_workers, **settings}, result=result)
        points.append(point)
        if on_point is not None:
            on_point(point)
    return points
