"""Execution layer: the training engines and the one Trainer front-end.

The worker↔server lifecycle of Algorithms 1–3 runs on four substrates —
real processes with a binary wire codec over OS pipes, the same over TCP
sockets with elastic membership and checkpoint/restore, an event-driven
virtual-clock simulator, and a barrier-synchronised SSGD reference.  This
package holds their three engines, each built from one :class:`RunConfig`
(:class:`RemoteTrainer` over ``"pipe"`` or ``"tcp"``,
:class:`SimulatedTrainer`, :class:`SynchronousTrainer`), on
top of the server substrate in :mod:`repro.ps`, the channel layer in
:mod:`repro.comm` and the cost models in :mod:`repro.sim`:

* :class:`RunConfig` — one description of a distributed run;
* :data:`BACKENDS` / :func:`get_backend` — the backend table
  (``"process"`` | ``"socket"`` | ``"simulated"`` | ``"sync"``): a name, a clock, the measured fields and an engine;
* :class:`Trainer` / :func:`train` — the one path that builds a
  backend's engine and runs it, under the CLI's override and result
  scopes;
* :class:`TrainResult` — the one result schema every backend returns,
  with explicit ``None``/NaN semantics for unmeasured fields.

``tests/exec/test_frontend.py`` runs a tiny workload on every built-in
backend, validates the schema and holds each to a learning floor.  See
``docs/execution.md`` for the field-by-field contract.
"""

from .backend import (
    BACKENDS,
    Backend,
    apply_config_overrides,
    collect_results,
    get_backend,
    notify_result,
    use_backend,
    use_config_overrides,
)
from .config import RunConfig
from .remote import RemoteTrainer
from .result import TrainResult, validate_result
from .simulated import SimulatedTrainer
from .sync import SynchronousTrainer
from .trainer import Trainer, train

__all__ = [
    "Backend",
    "BACKENDS",
    "RunConfig",
    "TrainResult",
    "Trainer",
    "train",
    "get_backend",
    "use_backend",
    "use_config_overrides",
    "apply_config_overrides",
    "collect_results",
    "notify_result",
    "validate_result",
    "RemoteTrainer",
    "SimulatedTrainer",
    "SynchronousTrainer",
]
