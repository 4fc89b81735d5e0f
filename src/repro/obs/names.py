"""Registered span and metric names — the telemetry vocabulary.

Every span and metric series the instrumented layers emit is named here,
once, as a module constant.  Two invariants make cross-run tooling (the
Chrome exporter, `repro.obs report` / `compare`, the health checker)
reliable:

* **Format** — names are ``dot.separated`` lowercase ASCII
  (``worker.compute``, ``server.lock_wait_s``), so they group naturally
  in flamegraphs and survive the Prometheus name mangling predictably.
* **Registration** — call sites outside ``repro/obs`` must reference
  these constants instead of spelling the string inline (enforced by the
  ``OBS001`` lint rule in :mod:`repro.analysis.rules.obs`).  A renamed
  span then breaks at one definition site, not silently in a dashboard.

Instrumentation internal to ``repro/obs`` (e.g. the hot-path hooks that
derive ``autograd.<op>`` names from the functions they wrap) may build
names dynamically; :func:`is_valid_name` is the format contract they
must still satisfy.
"""

from __future__ import annotations

import re

__all__ = [
    "COMM_RECV",
    "COMM_SEND",
    "METRIC_DOWNLOAD_BYTES",
    "METRIC_SERVER_LOCK_HOLD_S",
    "METRIC_SERVER_LOCK_WAIT_S",
    "METRIC_SERVER_STALENESS",
    "METRIC_UPLOAD_BYTES",
    "SERVER_FANOUT",
    "SERVER_HANDLE",
    "SERVER_LOCK_WAIT",
    "WORKER_APPLY",
    "WORKER_COMPUTE",
    "WORKER_STEP",
    "is_valid_name",
    "registered_names",
]

# -- span names ---------------------------------------------------------
#: one protocol-loop iteration: compute + exchange + apply
WORKER_STEP = "worker.step"
#: forward/backward pass producing one gradient message
WORKER_COMPUTE = "worker.compute"
#: applying the server reply to the local replica
WORKER_APPLY = "worker.apply"
#: one frame travelling worker → server (any transport)
COMM_SEND = "comm.send"
#: one frame travelling server → worker (any transport)
COMM_RECV = "comm.recv"
#: the server applying one update while holding its lock
SERVER_HANDLE = "server.handle"
#: the request waiting for the server lock (contention signal)
SERVER_LOCK_WAIT = "server.lock_wait"
#: a sharded front-end splitting one update across shards and merging
#: the replies (covers split + per-shard handles + merge; the per-shard
#: work shows up as ``server.handle`` spans on ``shard-<n>`` lanes)
SERVER_FANOUT = "server.fanout"

# -- metric series names ------------------------------------------------
#: per-worker staleness distribution at the server (histogram)
METRIC_SERVER_STALENESS = "server.staleness"
#: per-worker seconds spent waiting for the server lock (histogram)
METRIC_SERVER_LOCK_WAIT_S = "server.lock_wait_s"
#: per-worker seconds the server lock was held (histogram)
METRIC_SERVER_LOCK_HOLD_S = "server.lock_hold_s"
#: analytic payload bytes shipped worker → server (counter)
METRIC_UPLOAD_BYTES = "comm.upload_bytes"
#: analytic payload bytes shipped server → worker (counter)
METRIC_DOWNLOAD_BYTES = "comm.download_bytes"

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def is_valid_name(name: str) -> bool:
    """True iff ``name`` is ``dot.separated`` lowercase (≥ two segments)."""
    return bool(_NAME_RE.match(name))


def registered_names() -> "frozenset[str]":
    """Every registered span/metric name constant in this module."""
    return frozenset(
        value
        for key, value in globals().items()
        if key.isupper() and isinstance(value, str)
    )
