"""Training-method registry.

Bundles each approach the paper evaluates (§5, Table 5) into a declarative
spec: how the worker compresses upstream, how the server compresses
downstream, and which technique flags it carries.  The registry is the
single source of truth for the harness, the Table 5 bench, and the memory
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..compression.topk import TopKSparsifier
from .strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
    SparsityRamp,
    WorkerStrategy,
)

__all__ = ["MethodSpec", "Hyper", "build_strategy", "METHODS", "get_method"]


@dataclass(frozen=True)
class Hyper:
    """Per-run hyper-parameters shared by all methods."""

    lr: float = 0.1
    momentum: float = 0.7  # the paper's CIFAR setting (§5.1)
    ratio: float = 0.01  # R = 1%: "we chose here as Top 1%" (§4.1)
    secondary_ratio: float = 0.01  # secondary compression ratio (§5.5: 99%)
    clip_norm: float | None = 5.0  # DGC's gradient clipping
    warmup_epochs: int = 4  # DGC's sparsity ramp length
    iterations_per_epoch: int = 1
    #: layers smaller than this are sent dense (see TopKSparsifier)
    min_sparse_size: int = 256


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one training approach."""

    name: str
    label: str
    strategy: str  # 'dense' | 'dropping' | 'dgc' | 'samomentum'
    downstream: str  # 'model' (dense download) | 'difference'
    secondary_default: bool = False  # secondary compression on by default?
    distributed: bool = True
    # Table 5 columns:
    sparsification: str = "N"
    momentum: str = "N"
    momentum_correction: bool = False
    residual_accumulation: bool = False

    def make_strategy(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        hyper: Hyper,
        dtype: "object | None" = None,
    ) -> WorkerStrategy:
        return build_strategy(self.strategy, shapes, hyper, dtype=dtype)


def build_strategy(
    kind: str,
    shapes: Mapping[str, tuple[int, ...]],
    hyper: Hyper,
    dtype: "object | None" = None,
) -> WorkerStrategy:
    """Instantiate the worker-side strategy named ``kind``, its state a
    :class:`~repro.core.arena.LayerArena` of ``dtype`` (float32 by default)."""
    if kind == "dense":
        return DenseStrategy(shapes, dtype=dtype)
    if kind == "dropping":
        return GradientDroppingStrategy(
            shapes,
            TopKSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size),
            dtype=dtype,
        )
    if kind == "dgc":
        ramp = SparsityRamp(
            hyper.ratio,
            warmup_epochs=hyper.warmup_epochs,
            iterations_per_epoch=hyper.iterations_per_epoch,
        )
        return DGCStrategy(
            shapes,
            ratio=hyper.ratio,
            momentum=hyper.momentum,
            ramp=ramp,
            clip_norm=hyper.clip_norm,
            min_sparse_size=hyper.min_sparse_size,
            dtype=dtype,
        )
    if kind == "samomentum":
        return SAMomentumStrategy(
            shapes,
            TopKSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size),
            hyper.momentum,
            dtype=dtype,
        )
    # Extension strategies (§6 future-work combinations) register here.
    from .extensions import build_extension_strategy  # late import: avoids cycle

    strategy = build_extension_strategy(kind, shapes, hyper, dtype=dtype)
    if strategy is not None:
        return strategy
    raise ValueError(f"unknown strategy kind {kind!r}")


_DUAL = "Model Difference Tracking based Dual-way Gradient Sparsification"

METHODS: dict[str, MethodSpec] = {
    "msgd": MethodSpec(
        name="msgd",
        label="MSGD",
        strategy="dense",
        downstream="model",
        distributed=False,
        sparsification="N",
        momentum="vanilla momentum",
    ),
    "asgd": MethodSpec(
        name="asgd",
        label="ASGD",
        strategy="dense",
        downstream="model",
        sparsification="N",
        momentum="N",
    ),
    "gd_async": MethodSpec(
        name="gd_async",
        label="GD-async",
        strategy="dropping",
        downstream="difference",
        sparsification=_DUAL,
        momentum="N",
        residual_accumulation=True,
    ),
    "dgc_async": MethodSpec(
        name="dgc_async",
        label="DGC-async",
        strategy="dgc",
        downstream="difference",
        sparsification=_DUAL,
        momentum="vanilla momentum",
        momentum_correction=True,
        residual_accumulation=True,
    ),
    "dgs": MethodSpec(
        name="dgs",
        label="DGS",
        strategy="samomentum",
        downstream="difference",
        sparsification=_DUAL,
        momentum="SAMomentum",
        momentum_correction=False,
        residual_accumulation=False,
    ),
}


def get_method(name: str) -> MethodSpec:
    try:
        return METHODS[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {sorted(METHODS)}") from None
