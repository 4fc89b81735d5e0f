"""Registered span and metric names — the telemetry vocabulary.

Every span and metric series the instrumented layers emit is named here,
once, as a module constant.  Two invariants make cross-run tooling (the
Chrome exporter, `repro.obs report` / `compare`, the health checker)
reliable:

* **Format** — names are ``dot.separated`` lowercase ASCII
  (``worker.compute``, ``server.lock_wait_s``), so they group naturally
  in flamegraphs and survive the Prometheus name mangling predictably.
* **Registration** — every call site, ``repro/obs`` included, must
  reference these constants instead of spelling the string inline
  (enforced by the ``OBS001`` lint rule in
  :mod:`repro.analysis.rules.obs`).  A renamed span then breaks at one
  definition site, not silently in a dashboard.

The exchange-layer names (``data.next_batch`` … ``tracker.global_model``)
are the per-layer metric names of ``BENCHMARK.json`` without their
``_ms`` suffix, so an in-program trace and the benchmark's layer budget
share one vocabulary.
"""

from __future__ import annotations

import re

__all__ = [
    "COMM_RECV",
    "COMM_SEND",
    "DATA_NEXT_BATCH",
    "METRIC_DOWNLOAD_BYTES",
    "METRIC_SERVER_LOCK_HOLD_S",
    "METRIC_SERVER_LOCK_WAIT_S",
    "METRIC_SERVER_STALENESS",
    "METRIC_UPLOAD_BYTES",
    "NN_FORWARD_BACKWARD",
    "SERVER_FANOUT",
    "SERVER_HANDLE",
    "SERVER_LOCK_WAIT",
    "STRATEGY_PREPARE",
    "TRACKER_APPLY_UPDATE",
    "TRACKER_GLOBAL_MODEL",
    "TRACKER_MODEL_DIFFERENCE",
    "WIRE_DECODE_DOWN",
    "WIRE_DECODE_UP",
    "WIRE_ENCODE_DOWN",
    "WIRE_ENCODE_UP",
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

# -- exchange layers (inside the spans above) ----------------------------
#: worker.compute, part 1: drawing the next mini-batch
DATA_NEXT_BATCH = "data.next_batch"
#: worker.compute, part 2: forward pass, loss and backward sweep
NN_FORWARD_BACKWARD = "nn.forward_backward"
#: worker.compute, part 3: the strategy's momentum/residual update and
#: top-k selection, producing the upload payload
STRATEGY_PREPARE = "strategy.prepare"
#: serialising / parsing a gradient frame (worker → server)
WIRE_ENCODE_UP = "wire.encode_up"
WIRE_DECODE_UP = "wire.decode_up"
#: serialising / parsing a diff or model frame (server → worker)
WIRE_ENCODE_DOWN = "wire.encode_down"
WIRE_DECODE_DOWN = "wire.decode_down"
#: server.handle, part 1: adding the worker's update into M
TRACKER_APPLY_UPDATE = "tracker.apply_update"
#: server.handle, part 2 (difference mode): G_k = M − v_k and its
#: secondary compression
TRACKER_MODEL_DIFFERENCE = "tracker.model_difference"
#: server.handle, part 2 (model mode): θ_t = θ_0 + M for the ASGD reply
TRACKER_GLOBAL_MODEL = "tracker.global_model"

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
