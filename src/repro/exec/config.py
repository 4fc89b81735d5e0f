"""Backend-independent run description.

One :class:`RunConfig` describes a distributed training run, and every
engine is built from one: ``RemoteTrainer(config, transport)``,
``SimulatedTrainer(config)``, ``SynchronousTrainer(config)``.  Fields an engine does not use are
ignored (and documented as such); the conversions between the one global
iteration budget and each engine's native knob (per-worker iterations,
barrier rounds) live here so every backend slices the same amount of
optimisation work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.methods import Hyper, MethodSpec
from ..data.synthetic import Dataset
from ..nn.module import Module
from ..optim.schedules import Schedule
from ..sim.cluster import ClusterConfig

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Everything needed to run one distributed training job anywhere."""

    #: method registry name or spec ("asgd", "gd_async", "dgc_async", "dgs")
    method: "MethodSpec | str"
    #: zero-arg factory for a fresh model replica (same seed ⇒ same θ0)
    model_factory: Callable[[], Module]
    dataset: Dataset
    num_workers: int
    batch_size: int
    #: global gradient-computation budget, shared across workers.  The
    #: process and socket backends run ``iterations_per_worker()`` each; the
    #: sync backend runs ``rounds()`` barriers of ``num_workers`` gradients.
    total_iterations: int
    hyper: "Hyper | None" = None
    schedule: "Schedule | None" = None
    #: None ⇒ the method's default (``MethodSpec.secondary_default``)
    secondary_compression: "bool | None" = None
    #: gap-aware damping (paper ref. [4]); no-op under the sync barrier
    staleness_damping: bool = False
    #: partition the parameter server across N independently locked shards
    #: (whole layers, greedy by byte size — see docs/execution.md
    #: "Sharding").  1 ⇒ today's single-lock server; no-op under the sync
    #: barrier, which has no parameter server.
    num_shards: int = 1
    seed: int = 0
    #: virtual-cluster model; used by the simulated/sync backends only
    #: (None ⇒ a symmetric 10 Gb/s default via ``resolved_cluster()``)
    cluster: "ClusterConfig | None" = None
    #: periodic accuracy evaluation (simulated backend only)
    eval_every: "int | None" = None
    #: crash injection, worker id → local iteration.  Simulated backend:
    #: the worker silently stops producing updates.  Process and socket
    #: backends: the worker process hard-exits mid-run (no close frame),
    #: exercising the comm layer's crash path — the run returns a partial
    #: result with the crash recorded in ``TrainResult.errors``.
    fail_at: "dict[int, int] | None" = None
    #: False selects the parity oracle: the server and the strategies run
    #: on :mod:`repro.core.reference`'s dict-of-float64 state instead of
    #: flat-buffer arenas (see docs/performance.md).  For the parity tests.
    arena: bool = True
    #: arena buffer dtype; None ⇒ float32 (the wire dtype).  Pass
    #: ``"float64"`` to make the run bitwise-identical to the parity
    #: oracle (used by the parity tests).
    arena_dtype: "str | None" = None
    #: write a server checkpoint (repro.ps.checkpoint format) every N
    #: applied updates; requires ``checkpoint_path``.  Process and socket
    #: backends; the simulated and sync engines refuse it.
    checkpoint_every: "int | None" = None
    checkpoint_path: "str | None" = None
    #: restore server state from this checkpoint before training and
    #: fast-forward each worker's data stream by its recorded update count
    #: (the same backends as ``checkpoint_every``)
    restore_from: "str | None" = None
    #: process and socket backends: evict a worker silent for this many
    #: seconds (the serve loop's straggler timeout; on TCP also the
    #: per-channel read deadline)
    evict_after_s: "float | None" = None
    #: process and socket backends: worker id → seconds to delay its join
    #: (mid-run elastic joins)
    join_delay_s: "dict[int, float] | None" = None
    #: socket backend only: (host, port) for the server listener; None ⇒
    #: loopback with an ephemeral port (the CI default)
    bind: "tuple[str, int] | None" = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")

    # ------------------------------------------------------------------
    def iterations_per_worker(self) -> int:
        """Per-worker share of the global budget (process and socket backends)."""
        return max(1, self.total_iterations // self.num_workers)

    def rounds(self) -> int:
        """Barrier rounds covering the global budget (sync backend).

        Each round applies ``num_workers`` gradients (Eq. 7 sums the
        per-worker updates), so ``rounds × num_workers`` gradient
        computations match the asynchronous backends' budget.
        """
        return max(1, self.total_iterations // self.num_workers)

    def resolved_cluster(self) -> ClusterConfig:
        """The configured cluster, or a symmetric 10 Gb/s default.

        The virtual-clock engines size themselves from the cluster, so a
        worker count that disagrees with ``num_workers`` would silently
        drop (or invent) workers: it is rejected."""
        cluster = self.cluster
        if cluster is None:
            cluster = ClusterConfig.with_bandwidth(self.num_workers, 10.0, seed=self.seed)
        if cluster.num_workers != self.num_workers:
            raise ValueError(
                f"RunConfig.num_workers={self.num_workers} disagrees with "
                f"cluster.num_workers={cluster.num_workers}"
            )
        return cluster

    def describe(self) -> "dict[str, object]":
        """JSON-serialisable summary of the *resolved* configuration.

        This is what a run manifest records: scalar knobs verbatim, and
        the non-serialisable members (dataset, hyper, schedule, cluster)
        reduced to descriptive strings — enough to identify a run, not to
        re-execute it.  Whether the run was traced is recorded by the
        manifest's ``files.trace``.
        """
        method = self.method if isinstance(self.method, str) else self.method.name
        return {
            "method": method,
            "num_workers": self.num_workers,
            "batch_size": self.batch_size,
            "total_iterations": self.total_iterations,
            "iterations_per_worker": self.iterations_per_worker(),
            "rounds": self.rounds(),
            "seed": self.seed,
            "secondary_compression": self.secondary_compression,
            "staleness_damping": self.staleness_damping,
            "num_shards": self.num_shards,
            "arena": self.arena,
            "arena_dtype": self.arena_dtype,
            "eval_every": self.eval_every,
            "fail_at": dict(self.fail_at) if self.fail_at else None,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_path": self.checkpoint_path,
            "restore_from": self.restore_from,
            "evict_after_s": self.evict_after_s,
            "join_delay_s": dict(self.join_delay_s) if self.join_delay_s else None,
            "bind": list(self.bind) if self.bind is not None else None,
            "hyper": repr(self.hyper) if self.hyper is not None else None,
            "schedule": type(self.schedule).__name__ if self.schedule is not None else None,
            "cluster": repr(self.cluster) if self.cluster is not None else None,
            "dataset": f"{type(self.dataset).__name__}(n={len(getattr(self.dataset, 'x_train', ()))})",
        }
