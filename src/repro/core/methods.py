"""Training-method catalogue.

Bundles each approach the trainers run into a declarative spec: the
factory of the worker's upstream strategy, how the server compresses
downstream, and which technique flags it carries.  :data:`METHODS` is one
literal table — the paper's four asynchronous methods (§5, Table 5) and
the §6 combinations with other compressors — and the single source of
truth for the harness, the Table 5 bench, and the memory accounting.
Adding a method is one assignment, ``METHODS[name] = MethodSpec(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..compression.adaptive import AdaptiveThresholdSparsifier
from ..compression.topk import TopKSparsifier
from .extensions import DGSTernGradStrategy, QSGDStrategy, RandomDroppingStrategy, TernGradStrategy
from .strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
    SparsityRamp,
    WorkerStrategy,
)

__all__ = ["MethodSpec", "Hyper", "METHODS", "get_method"]


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
    #: the worker-side strategy factory,
    #: ``strategy(shapes, hyper, dtype=..., seed=...) -> WorkerStrategy``:
    #: state arenas of ``dtype`` (float32 when None), and ``seed`` for a
    #: stochastic compressor's random stream (anything ``np.random.default_rng``
    #: takes)
    strategy: "Callable[..., WorkerStrategy]"
    downstream: str  # 'model' (dense download) | 'difference'
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
        seed: "int | np.random.SeedSequence" = 0,
    ) -> WorkerStrategy:
        return self.strategy(shapes, hyper, dtype=dtype, seed=seed)


def _topk(hyper: Hyper) -> TopKSparsifier:
    return TopKSparsifier(hyper.ratio, min_sparse_size=hyper.min_sparse_size)


def _dense(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return DenseStrategy(shapes, dtype=dtype)


def _dropping(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return GradientDroppingStrategy(shapes, _topk(hyper), dtype=dtype)


def _dgc(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
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


def _samomentum(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return SAMomentumStrategy(shapes, _topk(hyper), hyper.momentum, dtype=dtype)


def _samomentum_adaptive(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    sparsifier = AdaptiveThresholdSparsifier(
        hyper.ratio, min_sparse_size=hyper.min_sparse_size, seed=seed
    )
    return SAMomentumStrategy(shapes, sparsifier, hyper.momentum, dtype=dtype)


def _dgs_terngrad(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return DGSTernGradStrategy(shapes, _topk(hyper), hyper.momentum, dtype=dtype)


def _terngrad(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return TernGradStrategy(shapes, seed=seed)


def _qsgd(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return QSGDStrategy(shapes, seed=seed)


def _random_dropping(shapes, hyper: Hyper, dtype=None, seed=0) -> WorkerStrategy:
    return RandomDroppingStrategy(shapes, hyper.ratio, seed=seed)


_DUAL = "Model Difference Tracking based Dual-way Gradient Sparsification"

METHODS: dict[str, MethodSpec] = {
    "asgd": MethodSpec(
        name="asgd",
        label="ASGD",
        strategy=_dense,
        downstream="model",
        sparsification="N",
        momentum="N",
    ),
    "gd_async": MethodSpec(
        name="gd_async",
        label="GD-async",
        strategy=_dropping,
        downstream="difference",
        sparsification=_DUAL,
        momentum="N",
        residual_accumulation=True,
    ),
    "dgc_async": MethodSpec(
        name="dgc_async",
        label="DGC-async",
        strategy=_dgc,
        downstream="difference",
        sparsification=_DUAL,
        momentum="vanilla momentum",
        momentum_correction=True,
        residual_accumulation=True,
    ),
    "dgs": MethodSpec(
        name="dgs",
        label="DGS",
        strategy=_samomentum,
        downstream="difference",
        sparsification=_DUAL,
        momentum="SAMomentum",
        momentum_correction=False,
        residual_accumulation=False,
    ),
    # §6 combinations with other compressors (repro.core.extensions)
    "dgs_adaptive": MethodSpec(
        name="dgs_adaptive",
        label="DGS (adaptive thr)",
        strategy=_samomentum_adaptive,
        downstream="difference",
        sparsification="Dual-way, sampled adaptive threshold (§4.1 note)",
        momentum="SAMomentum",
    ),
    "terngrad": MethodSpec(
        name="terngrad",
        label="TernGrad-async",
        strategy=_terngrad,
        downstream="model",
        sparsification="ternary quantisation",
        momentum="N",
    ),
    "qsgd": MethodSpec(
        name="qsgd",
        label="QSGD-async",
        strategy=_qsgd,
        downstream="model",
        sparsification="s-level stochastic quantisation",
        momentum="N",
    ),
    "random_dropping": MethodSpec(
        name="random_dropping",
        label="RandDrop-async",
        strategy=_random_dropping,
        downstream="difference",
        sparsification="random coordinate dropping (unbiased)",
        momentum="N",
    ),
    "dgs_terngrad": MethodSpec(
        name="dgs_terngrad",
        label="DGS+TernGrad",
        strategy=_dgs_terngrad,
        downstream="difference",
        sparsification="Dual-way Top-k + ternary values",
        momentum="SAMomentum",
    ),
}


def get_method(name: str) -> MethodSpec:
    try:
        return METHODS[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {sorted(METHODS)}") from None
