"""Backend table, the ambient default backend, and the CLI scopes.

A backend is a name, a clock, the ``TrainResult`` fields it measures and
an engine constructor taking one :class:`~repro.exec.config.RunConfig`;
:class:`~repro.exec.trainer.Trainer` is the one path that builds and runs
the engine.  :data:`BACKENDS` is one literal table of the four
("process", "socket", "simulated", "sync"); ``"process"`` and
``"socket"`` are one engine, :class:`~repro.exec.remote.RemoteTrainer`,
over OS pipes and over TCP.  Adding a backend is one assignment,
``BACKENDS[name] = Backend(name, ...)``, and it then works everywhere a
backend name is accepted — ``Trainer``, ``run_distributed(backend=...)``
and ``python -m repro run --backend``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from functools import partial
from typing import Callable, Iterator

from .config import RunConfig
from .remote import RemoteTrainer
from .result import TrainResult
from .simulated import SimulatedTrainer
from .sync import SynchronousTrainer

__all__ = [
    "Backend",
    "BACKENDS",
    "get_backend",
    "use_backend",
    "use_config_overrides",
    "apply_config_overrides",
    "collect_results",
    "notify_result",
]


@dataclasses.dataclass(frozen=True)
class Backend:
    """One way of executing a distributed training run."""

    #: table name, e.g. "process"
    name: str
    #: clock domain of the results it produces: "wall" | "virtual"
    clock: str
    #: optional TrainResult fields this backend guarantees to populate
    measures: "frozenset[str]"
    #: builds (but does not run) the engine for a config; the engine
    #: exposes ``run() -> TrainResult`` plus whatever pre-run state it
    #: publishes (e.g. ``.server``/``.workers``) for instrumentation
    engine: "Callable[[RunConfig], object]"


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
_REMOTE_MEASURES = _PS_MEASURES | {"wire_bytes_up", "wire_bytes_down"}

BACKENDS: "dict[str, Backend]" = {
    "process": Backend(
        "process", "wall", _REMOTE_MEASURES, partial(RemoteTrainer, transport="pipe")
    ),
    "socket": Backend(
        "socket", "wall", _REMOTE_MEASURES, partial(RemoteTrainer, transport="tcp")
    ),
    "simulated": Backend(
        "simulated",
        "virtual",
        _PS_MEASURES | {"loss_vs_time", "uplink_utilisation", "downlink_utilisation"},
        SimulatedTrainer,
    ),
    "sync": Backend(
        "sync",
        "virtual",
        frozenset(
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
        ),
        SynchronousTrainer,
    ),
}

#: name resolved when a caller passes ``backend=None``; the simulator is
#: the default because it is cheap, deterministic, and fully instrumented.
_DEFAULT = "simulated"


def get_backend(name: "str | Backend | None" = None) -> Backend:
    """Resolve a backend by table name (None ⇒ the ambient default)."""
    if name is None:
        name = _DEFAULT
    if not isinstance(name, str):
        return name  # already a Backend instance
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown backend {name!r}; known: {list(BACKENDS)}") from None


#: active result sinks — every completed backend run is appended to each
_COLLECTORS: "list[list[tuple[RunConfig, TrainResult]]]" = []


def notify_result(config: RunConfig, result: TrainResult) -> None:
    """Report a completed run to every active :func:`collect_results` scope
    (``Trainer.run`` calls this for every backend)."""
    for sink in _COLLECTORS:
        sink.append((config, result))


@contextlib.contextmanager
def collect_results() -> "Iterator[list[tuple[RunConfig, TrainResult]]]":
    """Collect every (config, result) pair produced while the scope is open.

    The seam behind ``python -m repro run --run-dir``: experiments run
    arbitrarily many distributed jobs internally, and the CLI turns the
    collected pairs into run-manifest artifacts without threading a sink
    through every runner signature.
    """
    sink: "list[tuple[RunConfig, TrainResult]]" = []
    _COLLECTORS.append(sink)
    try:
        yield sink
    finally:
        _COLLECTORS.remove(sink)


#: ambient RunConfig field overrides, innermost scope last
_CONFIG_OVERRIDES: "list[dict[str, object]]" = []


@contextlib.contextmanager
def use_config_overrides(**fields: object) -> "Iterator[dict[str, object]]":
    """Temporarily override :class:`RunConfig` fields for every run.

    The seam behind ``python -m repro run --checkpoint-every/--restore``:
    experiments build their own configs internally, and the CLI layers
    run-level settings (checkpointing, restore) over all of them without
    threading new parameters through every runner signature.  Overrides
    are applied by :func:`apply_config_overrides` (``Trainer`` calls it
    before it builds the engine); unknown field names fail fast.
    """
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown RunConfig fields: {sorted(unknown)}")
    scope = dict(fields)
    _CONFIG_OVERRIDES.append(scope)
    try:
        yield scope
    finally:
        _CONFIG_OVERRIDES.remove(scope)


def apply_config_overrides(config: RunConfig) -> RunConfig:
    """``config`` with every active override scope applied (innermost wins).

    Returns the input object unchanged when no scope is active.
    """
    if not _CONFIG_OVERRIDES:
        return config
    merged: "dict[str, object]" = {}
    for scope in _CONFIG_OVERRIDES:
        merged.update(scope)
    return dataclasses.replace(config, **merged)


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily change the ambient default backend.

    The seam behind ``python -m repro run --backend``: experiments that
    call ``run_distributed`` without an explicit backend inherit this.
    """
    global _DEFAULT
    get_backend(name)  # fail fast on unknown names
    previous = _DEFAULT
    _DEFAULT = name
    try:
        yield name
    finally:
        _DEFAULT = previous
