"""Unified execution layer: one Trainer front-end over pluggable backends.

The worker↔server lifecycle of Algorithms 1–3 runs on five substrates —
real threads, real processes with a binary wire codec, real TCP sockets
with elastic membership and checkpoint/restore, an event-driven
virtual-clock simulator, and a barrier-synchronised SSGD reference.  This
package makes them interchangeable:

* :class:`RunConfig` — one description of a distributed run;
* :func:`get_backend` / :func:`register_backend` — the backend registry
  (``"threaded"`` | ``"process"`` | ``"socket"`` | ``"simulated"`` |
  ``"sync"``);
* :class:`Trainer` / :func:`train` — the front-end that executes a config
  on any backend;
* :class:`TrainResult` — the one result schema every backend returns,
  with explicit ``None``/NaN semantics for unmeasured fields.

``python -m repro.exec`` runs a tiny workload on every registered backend
and validates the schema (the ``make backend-matrix`` smoke).  See
``docs/execution.md`` for the field-by-field contract.
"""

from .backend import (
    Backend,
    apply_config_overrides,
    collect_results,
    default_backend,
    get_backend,
    list_backends,
    notify_result,
    register_backend,
    use_backend,
    use_config_overrides,
)
# importing .backends registers the five built-ins
from .backends import (
    RemoteBackend,
    SimulatedBackend,
    SyncBackend,
    ThreadedBackend,
)
from .config import RunConfig
from .result import TrainResult, validate_result
from .trainer import Trainer, train

__all__ = [
    "Backend",
    "RunConfig",
    "TrainResult",
    "Trainer",
    "train",
    "get_backend",
    "register_backend",
    "list_backends",
    "default_backend",
    "use_backend",
    "use_config_overrides",
    "apply_config_overrides",
    "collect_results",
    "notify_result",
    "validate_result",
    "ThreadedBackend",
    "RemoteBackend",
    "SimulatedBackend",
    "SyncBackend",
]
