"""Construction and evaluation steps shared by the execution engines.

Resolve the method spec, default the hyper-parameters and LR schedule,
decide the server-side secondary compression, build a
:class:`~repro.ps.server.ParameterServer` seeded with θ0, stamp out
per-worker :class:`~repro.ps.worker.WorkerNode` replicas, and evaluate
θ0 + M on the validation split — written once, so the engines are
scheduling loops on top.  It is also the one place that picks the parity
oracle: ``arena=False`` installs :mod:`repro.core.reference`.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..core.layerops import assign_parameters, layer_shapes
from ..core.methods import Hyper, MethodSpec, get_method
from ..core.reference import install_reference_server, reference_strategy
from ..data.loader import BatchIterator, DataLoader
from ..data.synthetic import Dataset
from ..metrics.evaluation import evaluate_model, evaluate_params
from ..nn.module import Module
from ..nn.norm import reestimate_batchnorm
from ..optim.schedules import ConstantLR, Schedule
from ..ps.server import ParameterServer
from ..ps.sharded import ShardedParameterServer
from ..ps.worker import WorkerNode
from .config import RunConfig

__all__ = [
    "UnsupportedSetting",
    "refuse_checkpointing",
    "resolve_method",
    "resolve_hyper",
    "resolve_schedule",
    "secondary_ratio_for",
    "build_server",
    "build_worker",
    "build_workers",
    "evaluate_global",
    "evaluate_global_scratch",
]

#: training batches that re-estimate BatchNorm statistics before a
#: scratch evaluation (at most one epoch's worth)
BN_REESTIMATE_BATCHES = 32


class UnsupportedSetting(ValueError):
    """A :class:`RunConfig` field the chosen backend does not honour."""


def refuse_checkpointing(config: RunConfig, backend: str) -> None:
    """Raise, rather than silently ignore, checkpoint settings on an engine
    that neither writes nor reads checkpoints (the virtual-clock ones)."""
    for field in ("checkpoint_every", "restore_from"):
        if getattr(config, field) is not None:
            raise UnsupportedSetting(
                f"{field} is not supported by the {backend} backend; "
                "only the process and socket backends honour it"
            )


def resolve_method(method: "MethodSpec | str") -> MethodSpec:
    """``method``'s spec: a catalogue name is looked up in ``METHODS``."""
    return get_method(method) if isinstance(method, str) else method


def resolve_hyper(hyper: "Hyper | None") -> Hyper:
    return hyper if hyper is not None else Hyper()


def resolve_schedule(schedule: "Schedule | None", hyper: Hyper) -> Schedule:
    return schedule if schedule is not None else ConstantLR(hyper.lr)


def secondary_ratio_for(
    method: MethodSpec, hyper: Hyper, secondary_compression: bool
) -> "float | None":
    """Server-side secondary compression ratio, or None when disabled.

    Secondary compression only exists in the ``difference`` downstream mode
    (Algorithm 2 / Eq. 6).
    """
    if method.downstream == "difference" and secondary_compression:
        return hyper.secondary_ratio
    return None


def build_server(
    method: MethodSpec,
    theta0: "Mapping[str, np.ndarray]",
    num_workers: int,
    hyper: Hyper,
    secondary_compression: bool = False,
    staleness_damping: bool = False,
    arena: bool = True,
    arena_dtype: "object | None" = None,
    num_shards: int = 1,
) -> ParameterServer:
    """A parameter server configured for ``method``'s downstream mode.

    ``num_shards=1`` builds the plain single-lock server — the sharded
    front-end never sits between one lock and its callers — while
    ``num_shards>1`` partitions the layers across independently locked
    :class:`~repro.ps.sharded.ParameterShard` s behind a
    :class:`~repro.ps.sharded.ShardedParameterServer`.  ``arena=False``
    gives it the parity oracle's state instead of arenas of ``arena_dtype``.
    """
    kwargs = dict(
        downstream=method.downstream,
        secondary_ratio=secondary_ratio_for(method, hyper, secondary_compression),
        secondary_min_sparse_size=hyper.min_sparse_size,
        staleness_damping=staleness_damping,
        dtype=arena_dtype,
    )
    if num_shards > 1:
        server = ShardedParameterServer(theta0, num_workers, num_shards, **kwargs)
    else:
        server = ParameterServer(theta0, num_workers, **kwargs)
    return server if arena else install_reference_server(server, theta0)


def build_worker(
    worker_id: int,
    num_workers: int,
    model: Module,
    loader: DataLoader,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    theta0: "Mapping[str, np.ndarray] | None" = None,
    arena: bool = True,
    arena_dtype: "object | None" = None,
    seed: int = 0,
) -> WorkerNode:
    """One worker node on ``model``, optionally re-seeded to θ0; its
    strategy holds arenas of ``arena_dtype``, or is the parity oracle's
    twin when ``arena=False``.  A stochastic compressor draws from its own
    stream, seeded by the run's ``seed`` and ``worker_id``."""
    if theta0 is not None:
        # All replicas start from the same θ0.
        assign_parameters(model, theta0)
    strategy = method.make_strategy(
        layer_shapes(model),
        hyper,
        dtype=arena_dtype,
        seed=np.random.SeedSequence([seed, worker_id]),
    )
    return WorkerNode(
        worker_id,
        model,
        loader.worker_iterator(worker_id, num_workers),
        strategy if arena else reference_strategy(strategy),
        schedule=schedule,
    )


def build_workers(
    num_workers: int,
    model_factory: Callable[[], Module],
    loader: DataLoader,
    method: MethodSpec,
    hyper: Hyper,
    schedule: Schedule,
    theta0: "Mapping[str, np.ndarray]",
    first_model: "Module | None" = None,
    arena: bool = True,
    arena_dtype: "object | None" = None,
    seed: int = 0,
) -> "list[WorkerNode]":
    """Stamp out ``num_workers`` replicas, all starting from θ0.

    ``first_model`` lets a caller donate an already-built model as worker
    0's replica (the simulator donates the reference model ``theta0`` was
    read from, so it is built once).
    """
    return [
        build_worker(
            w,
            num_workers,
            first_model if (w == 0 and first_model is not None) else model_factory(),
            loader,
            method,
            hyper,
            schedule,
            theta0=theta0,
            arena=arena,
            arena_dtype=arena_dtype,
            seed=seed,
        )
        for w in range(num_workers)
    ]


def evaluate_global(model: Module, server: ParameterServer, dataset: Dataset) -> "tuple[float, float]":
    """(accuracy, loss) of the server's θ0 + M on the validation split.

    ``model`` supplies BatchNorm running statistics — they are trained
    locally and are not part of the PS exchange, so callers pass worker 0's
    replica (its statistics reflect actual training data).
    """
    return evaluate_params(model, server.global_model(), dataset.x_val, dataset.y_val)


def evaluate_global_scratch(
    model: Module, server: ParameterServer, dataset: Dataset, batch_size: int
) -> "tuple[float, float]":
    """(accuracy, loss) of θ0 + M on the validation split, on a model that
    is scratch: θ0 + M is assigned into ``model`` and left there.

    For an engine whose workers' BatchNorm running statistics never reach
    the evaluating process: the statistics are re-estimated on θ0 + M from
    up to :data:`BN_REESTIMATE_BATCHES` training batches of ``batch_size``.
    A BatchNorm-free model draws no batch and gives bitwise the numbers of
    :func:`evaluate_global`.
    """
    assign_parameters(model, server.global_model())
    stream = BatchIterator(dataset.x_train, dataset.y_train, batch_size)
    count = min(BN_REESTIMATE_BATCHES, stream.batches_per_epoch)
    reestimate_batchnorm(model, (stream.next_batch()[0] for _ in range(count)))
    return evaluate_model(model, dataset.x_val, dataset.y_val)
