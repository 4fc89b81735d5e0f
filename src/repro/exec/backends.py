"""The five built-in execution backends.

Each adapter maps the backend-independent :class:`RunConfig` onto one
engine's native constructor and declares which optional ``TrainResult``
fields it guarantees to populate.  The engines themselves live in
``repro.ps.threaded``, ``repro.ps.remote`` (both ``"process"`` and
``"socket"``), ``repro.sim.engine`` and ``repro.sim.sync``; the adapters
are the only place that knows their constructor signatures.
"""

from __future__ import annotations

from .backend import apply_config_overrides, notify_result, register_backend
from .config import RunConfig
from .result import TrainResult

__all__ = [
    "ThreadedBackend",
    "RemoteBackend",
    "SimulatedBackend",
    "SyncBackend",
]

#: optional fields every parameter-server backend measures
_PS_MEASURES = frozenset(
    {
        "makespan_s",
        "clock",
        "upload_dense_bytes",
        "download_dense_bytes",
        "server_state_bytes",
        "worker_state_bytes",
        "worker_staleness",
        "metrics",
    }
)


class _BackendBase:
    """run() = create() + run(); subclasses implement create()."""

    name = ""
    clock = ""
    measures: "frozenset[str]" = frozenset()

    def create(self, config: RunConfig):
        raise NotImplementedError

    def run(self, config: RunConfig) -> TrainResult:
        config = apply_config_overrides(config)  # CLI-level field overlays
        result = self.create(config).run()
        notify_result(config, result)
        return result


class ThreadedBackend(_BackendBase):
    """Real OS threads against a lock-protected parameter server."""

    name = "threaded"
    clock = "wall"
    measures = _PS_MEASURES

    def create(self, config: RunConfig):
        from ..ps.threaded import ThreadedTrainer

        return ThreadedTrainer(
            config.method,
            config.model_factory,
            config.dataset,
            num_workers=config.num_workers,
            batch_size=config.batch_size,
            iterations_per_worker=config.iterations_per_worker(),
            hyper=config.hyper,
            schedule=config.schedule,
            secondary_compression=config.secondary_compression,
            staleness_damping=config.staleness_damping,
            num_shards=config.num_shards,
            seed=config.seed,
            tracer=config.tracer,
            wire_fidelity=config.wire_fidelity,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
            register=config.register,
            checkpoint_every=config.checkpoint_every,
            checkpoint_path=config.checkpoint_path,
            restore_from=config.restore_from,
        )


class RemoteBackend(_BackendBase):
    """Forked worker processes exchanging frame bytes over ``transport``.

    Registered twice: ``"process"`` over OS pipes and ``"socket"`` over
    TCP (the server binds a listener, loopback-ephemeral unless
    ``config.bind`` says otherwise, and workers connect).  Either way the
    workers register through the membership handshake, stragglers can be
    evicted (``evict_after_s``), and the server state checkpoints to one
    contiguous file (``checkpoint_every``/``restore_from``).
    """

    clock = "wall"
    measures = _PS_MEASURES | {"wire_bytes_up", "wire_bytes_down"}

    def __init__(self, name: str, transport: str) -> None:
        self.name = name
        self.transport = transport

    def create(self, config: RunConfig):
        from ..ps.remote import RemoteTrainer

        return RemoteTrainer(
            config.method,
            config.model_factory,
            config.dataset,
            num_workers=config.num_workers,
            batch_size=config.batch_size,
            iterations_per_worker=config.iterations_per_worker(),
            hyper=config.hyper,
            schedule=config.schedule,
            secondary_compression=config.secondary_compression,
            staleness_damping=config.staleness_damping,
            num_shards=config.num_shards,
            seed=config.seed,
            transport=self.transport,
            fail_at=config.fail_at,
            join_delay_s=config.join_delay_s,
            evict_after_s=config.evict_after_s,
            checkpoint_every=config.checkpoint_every,
            checkpoint_path=config.checkpoint_path,
            restore_from=config.restore_from,
            bind=config.bind,
            tracer=config.tracer,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
        )


class SimulatedBackend(_BackendBase):
    """Event-driven virtual-clock simulation with a modelled network."""

    name = "simulated"
    clock = "virtual"
    measures = _PS_MEASURES | {
        "loss_vs_time",
        "uplink_utilisation",
        "downlink_utilisation",
    }

    def create(self, config: RunConfig):
        from ..sim.engine import SimulatedTrainer

        return SimulatedTrainer(
            config.method,
            config.model_factory,
            config.dataset,
            _checked_cluster(config),
            batch_size=config.batch_size,
            total_iterations=config.total_iterations,
            hyper=config.hyper,
            schedule=config.schedule,
            secondary_compression=config.secondary_compression,
            eval_every=config.eval_every,
            staleness_damping=config.staleness_damping,
            num_shards=config.num_shards,
            fail_at=config.fail_at,
            logger=config.logger,
            tracer=config.tracer,
            seed=config.seed,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
        )


class SyncBackend(_BackendBase):
    """Barrier-synchronised SSGD reference on the virtual cluster."""

    name = "sync"
    clock = "virtual"
    measures = frozenset(
        {
            "makespan_s",
            "clock",
            "loss_vs_time",
            "upload_dense_bytes",
            "download_dense_bytes",
            "uplink_utilisation",
            "downlink_utilisation",
            "worker_state_bytes",
            "rounds",
            "straggler_time_s",
        }
    )

    def create(self, config: RunConfig):
        from ..sim.sync import SynchronousTrainer

        return SynchronousTrainer(
            config.method,
            config.model_factory,
            config.dataset,
            _checked_cluster(config),
            batch_size=config.batch_size,
            rounds=config.rounds(),
            hyper=config.hyper,
            schedule=config.schedule,
            seed=config.seed,
            arena=config.arena,
            arena_dtype=config.arena_dtype,
        )


def _checked_cluster(config: RunConfig):
    """The resolved virtual cluster; its worker count must match the config.

    The simulated/sync engines size themselves from the cluster, so a
    disagreement would silently drop (or invent) workers."""
    cluster = config.resolved_cluster()
    if cluster.num_workers != config.num_workers:
        raise ValueError(
            f"RunConfig.num_workers={config.num_workers} disagrees with "
            f"cluster.num_workers={cluster.num_workers}"
        )
    return cluster


register_backend(ThreadedBackend())
register_backend(RemoteBackend("process", "pipe"))
register_backend(RemoteBackend("socket", "tcp"))
register_backend(SimulatedBackend())
register_backend(SyncBackend())
