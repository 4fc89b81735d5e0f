"""The four built-in execution backends.

Each is a name, a clock, the optional ``TrainResult`` fields it
guarantees to populate, and the engine it builds from a
:class:`~repro.exec.config.RunConfig`.  ``"process"`` and ``"socket"`` are
one engine, :class:`~repro.exec.remote.RemoteTrainer`, over OS pipes and
over TCP.
"""

from __future__ import annotations

from functools import partial

from .backend import Backend, register_backend
from .remote import RemoteTrainer
from .simulated import SimulatedTrainer
from .sync import SynchronousTrainer

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

register_backend(
    Backend("process", "wall", _REMOTE_MEASURES, partial(RemoteTrainer, transport="pipe"))
)
register_backend(
    Backend("socket", "wall", _REMOTE_MEASURES, partial(RemoteTrainer, transport="tcp"))
)
register_backend(
    Backend(
        "simulated",
        "virtual",
        _PS_MEASURES | {"loss_vs_time", "uplink_utilisation", "downlink_utilisation"},
        SimulatedTrainer,
    )
)
register_backend(
    Backend(
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
    )
)
