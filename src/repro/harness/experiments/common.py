"""Shared helpers for the experiment runners."""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ...core.methods import Hyper
from ..config import WorkloadSpec
from ..runners import run_distributed, run_msgd

__all__ = [
    "scaling_hyper",
    "scaled_batch",
    "mean_accuracy",
    "METHOD_LABELS",
]

METHOD_LABELS = {
    "msgd": "MSGD",
    "asgd": "ASGD",
    "gd_async": "GD-async",
    "dgc_async": "DGC-async",
    "dgs": "DGS",
}


def scaled_batch(num_workers: int, base: int = 128, floor: int = 8) -> int:
    """Table 3's rule — per-worker batch halves as workers double.

    The paper runs 256→16 over 1→32 workers; our scaled-down datasets use
    base 128 with a floor of 8 (below which micro-scale SGD is too noisy to
    train at any method — a substitution documented in DESIGN.md §2).
    """
    return max(floor, base // max(num_workers, 1))


def scaling_hyper(workload: WorkloadSpec, num_workers: int) -> Hyper:
    """Worker-count-dependent hyper-parameters, following the paper.

    §5.1 uses momentum 0.7 at ≤8 workers and reduces it at scale (0.45 at
    16 workers); §5.4 reports that momentum 0.3 is the right setting at 32
    workers because "asynchrony introduces momentum" [19].  Our micro-scale
    models see the same staleness with ~100× fewer parameters, so the
    reduction is needed one step earlier: we apply 0.3 from 16 workers up
    (documented deviation — DESIGN.md §2).  The LR drop at 32 workers
    compensates for the smaller per-worker batch (linear-scaling rule the
    paper cites [Goyal et al.]).
    """
    h = workload.hyper
    if num_workers >= 32:
        return replace(h, momentum=0.3, lr=h.lr * 0.5)
    if num_workers >= 16:
        return replace(h, momentum=0.3)
    return h


def mean_accuracy(
    method: str,
    workload: WorkloadSpec,
    num_workers: int,
    seeds: Sequence[int],
    fast: bool,
    **kwargs,
) -> tuple[float, float]:
    """Mean ± std final accuracy across seeds for one configuration."""
    accs = []
    for seed in seeds:
        if method == "msgd":
            r = run_msgd(workload, fast=fast, seed=seed,
                         epochs=kwargs.get("epochs"), batch_size=kwargs.get("batch_size"))
        else:
            r = run_distributed(method, workload, num_workers, fast=fast, seed=seed, **kwargs)
        accs.append(r.final_accuracy)
    return float(np.mean(accs)), float(np.std(accs))
