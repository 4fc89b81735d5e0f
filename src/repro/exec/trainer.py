"""The one trainer front-end.

``Trainer(config, backend=...)`` — or the one-shot :func:`train` — is the
single path over the pluggable execution backends.  Any method ×
backend × workload combination runs through here and comes back as one
unified :class:`~repro.exec.result.TrainResult`::

    from repro.exec import RunConfig, Trainer

    cfg = RunConfig("dgs", model_factory, dataset,
                    num_workers=4, batch_size=32, total_iterations=400)
    result = Trainer(cfg, backend="process").run()   # or "socket",
    print(result.final_accuracy, result.throughput)  # "simulated", "sync"

The CLI scopes apply here, whatever the caller: the active
:func:`~repro.exec.backend.use_config_overrides` fields are laid over
``config`` before the engine is built, and :meth:`Trainer.run` reports
the result to every :func:`~repro.exec.backend.collect_results` scope.
"""

from __future__ import annotations

from .backend import Backend, apply_config_overrides, get_backend, notify_result
from .config import RunConfig
from .result import TrainResult

__all__ = ["Trainer", "train"]


class Trainer:
    """Run one :class:`RunConfig` on a named (or ambient default) backend."""

    def __init__(self, config: RunConfig, backend: "str | Backend | None" = None) -> None:
        #: ``config`` with the active CLI overrides applied
        self.config = apply_config_overrides(config)
        self.backend = get_backend(backend)
        #: the underlying engine, built eagerly so callers can instrument
        #: pre-run state (e.g. ``trainer.engine.server``) before ``run()``.
        self.engine = self.backend.engine(self.config)

    def run(self) -> TrainResult:
        result = self.engine.run()
        notify_result(self.config, result)
        return result


def train(config: RunConfig, backend: "str | Backend | None" = None) -> TrainResult:
    """One-shot convenience: build the backend's engine and run it."""
    return Trainer(config, backend=backend).run()
