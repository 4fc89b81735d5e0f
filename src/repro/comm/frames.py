"""Typed frames — everything that crosses a worker↔server channel.

DGS's contribution is what travels on the wire in *both* directions
(Algorithms 1/2, Eq. 5–6), so the wire vocabulary is small and explicit:

* :class:`GradientFrame` — upstream ``encode(g_{k,t})`` plus the worker's
  training loss for that step (the server side records loss curves without
  a second side channel);
* :class:`DiffFrame` / :class:`ModelFrame` — the two downstream modes
  (sparse model difference ``G_k`` vs full dense model);
* :class:`CloseFrame` — explicit end-of-stream with the worker's final
  local accounting (samples processed, strategy buffer bytes) and an
  optional error description.  A channel that dies *without* a close frame
  is a crash; the serving loop reports it instead of hanging.

The byte representation wraps the payload codec (``repro.ps.codec``) in a
four-byte frame header, replacing the ad-hoc ``b"G"``/``b"S"`` tag bytes
the process backend used to hand-roll::

    frame    := magic u8 | kind u8 | shard i16 | body
    kind 0   : loss f64 | codec message                    (gradient)
    kind 1/2 : staleness i32 | codec message               (diff / model)
    kind 3   : worker i32 | samples i64 | state_bytes i64 |
               err_len u16 | err utf-8                     (close)
    kind 4   : worker i32 | body_len u32 | utf-8 JSON      (telemetry)
    kind 5   : worker i32 | op u8                          (control)

(`-1` in the close accounting fields means "not reported"; a zero-length
error means "no error", so an empty error string normalises to ``None``.)

``shard`` is the routing slot for a sharded server: ``-1`` addresses the
whole server (the default — a sharded front-end fans the payload out
itself), ``>= 0`` addresses one shard; :func:`decode_frame` reads it off
the fixed-size header into the payload frame's ``shard``.  Control frames
(close / telemetry / membership) always carry ``-1``.

:class:`ControlFrame` (kind 5) is the elastic-membership handshake: a
worker *joins* before its first gradient (the server bootstraps its
``v_k`` from ``M_t`` and replies with a :class:`ModelFrame` carrying the
current global model) and may *leave* explicitly before its close frame.
The ops are the entire membership wire vocabulary — everything else
(eviction, crash handling) is a server-side decision about an existing
channel, not a frame.

:class:`TelemetryFrame` (kind 4) is the observability side channel: a
worker process ships its tracer spans back to the parent just before its
close frame, so a process-backend ``--trace`` run yields one merged trace
instead of a parent-only view.  The body is the JSON object
``{"spans": [...]}`` in the ``repro.obs.span`` record schema.  Telemetry
is diagnostic, not payload: ``nbytes()`` is 0 so analytic byte accounting
(what DGS compresses) is unchanged, while the raw wire counters still see
every byte.

Frames also carry the *analytic* byte accounting every backend reports
(:meth:`nbytes` / :meth:`dense_nbytes`), so ``TrainResult`` byte fields
mean the same thing whether the frame crossed an OS pipe, a thread
boundary, or a simulated link.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from ..ps.codec import decode_message, join_segments, message_segments
from ..ps.messages import DiffMessage, GradientMessage, ModelMessage

__all__ = [
    "FRAME_MAGIC",
    "KIND_GRADIENT",
    "KIND_DIFF",
    "KIND_MODEL",
    "KIND_CLOSE",
    "KIND_TELEMETRY",
    "KIND_CONTROL",
    "Frame",
    "GradientFrame",
    "DiffFrame",
    "ModelFrame",
    "CloseFrame",
    "TelemetryFrame",
    "ControlFrame",
    "CONTROL_JOIN",
    "CONTROL_LEAVE",
    "reply_frame",
    "encode_frame",
    "frame_segments",
    "decode_frame",
    "peek_kind",
]

FRAME_MAGIC = 0xDF  # one-byte frame magic ("Dual-way Frame")

_HEADER = struct.Struct("<BBh")  # magic, kind, shard (-1 = whole server)
_LOSS = struct.Struct("<d")
_STALENESS = struct.Struct("<i")  # diff/model: the codec header has no slot for it
_CLOSE = struct.Struct("<iqq")  # worker_id, samples, state_bytes (-1 ⇒ not reported)
_ERR_LEN = struct.Struct("<H")

#: wire kind bytes — public so routing transports can demux a raw frame
#: (:func:`peek_kind`) without decoding the payload
KIND_GRADIENT = 0
KIND_DIFF = 1
KIND_MODEL = 2
KIND_CLOSE = 3
KIND_TELEMETRY = 4
KIND_CONTROL = 5

_TELEMETRY = struct.Struct("<iI")  # worker_id, body length
_CONTROL = struct.Struct("<iB")  # worker_id, op

#: membership ops a ControlFrame can carry
CONTROL_JOIN = "join"
CONTROL_LEAVE = "leave"
_CONTROL_OPS = (CONTROL_JOIN, CONTROL_LEAVE)  # wire op byte = tuple index


class _PayloadFrame:
    """A frame around a codec message: its worker id and its analytic
    payload bytes (the accounting every backend reports) are the
    message's."""

    @property
    def worker_id(self) -> int:
        return self.message.worker_id

    def nbytes(self) -> int:
        return self.message.nbytes()

    def dense_nbytes(self) -> int:
        return self.message.dense_nbytes()


class _NoPayloadFrame:
    """A control-plane frame: no payload, so 0 analytic bytes (the wire
    counters still see its header)."""

    def nbytes(self) -> int:
        return 0

    def dense_nbytes(self) -> int:
        return 0


@dataclass(frozen=True)
class GradientFrame(_PayloadFrame):
    """Upstream: one compressed gradient plus the step's training loss."""

    message: GradientMessage
    loss: float
    #: target shard for header-routed transports; -1 = whole server
    shard: int = -1


@dataclass(frozen=True)
class DiffFrame(_PayloadFrame):
    """Downstream: the server's sparse model difference ``G_k``."""

    message: DiffMessage
    #: originating shard for header-routed transports; -1 = whole server
    shard: int = -1


@dataclass(frozen=True)
class ModelFrame(_PayloadFrame):
    """Downstream for vanilla ASGD / sync broadcast: the dense model."""

    message: ModelMessage
    #: originating shard for header-routed transports; -1 = whole server
    shard: int = -1


@dataclass(frozen=True)
class CloseFrame(_NoPayloadFrame):
    """Explicit end-of-stream with the worker's final local accounting.

    ``samples_processed`` / ``worker_state_bytes`` are ``None`` when the
    sender could not report them; ``error`` carries a crash description
    when the worker loop died with an exception (the accounting observed
    up to the failure is still attached).
    """

    worker_id: int = -1
    samples_processed: "int | None" = None
    worker_state_bytes: "int | None" = None
    error: "str | None" = None


@dataclass(frozen=True)
class TelemetryFrame(_NoPayloadFrame):
    """One worker's spans, shipped at loop close.

    ``spans`` are ``repro.obs.span`` records (the worker's own tracer
    output, *not yet* relabeled — the receiver stamps them with their
    origin lane); they must be JSON-serialisable.
    """

    worker_id: int = -1
    spans: "tuple[dict[str, Any], ...]" = field(default_factory=tuple)


@dataclass(frozen=True)
class ControlFrame(_NoPayloadFrame):
    """Membership handshake: ``join`` (expects a ModelFrame reply carrying
    the bootstrapped global model) or ``leave`` (one-way, before close)."""

    worker_id: int
    op: str = CONTROL_JOIN

    def __post_init__(self) -> None:
        if self.op not in _CONTROL_OPS:
            raise ValueError(f"unknown control op {self.op!r}; known: {_CONTROL_OPS}")


Frame = "GradientFrame | DiffFrame | ModelFrame | CloseFrame | TelemetryFrame | ControlFrame"


def reply_frame(
    msg: "DiffMessage | ModelMessage", shard: int = -1
) -> "DiffFrame | ModelFrame":
    """Wrap a server reply message in its downstream frame type."""
    if isinstance(msg, DiffMessage):
        return DiffFrame(msg, shard=shard)
    if isinstance(msg, ModelMessage):
        return ModelFrame(msg, shard=shard)
    raise TypeError(f"not a downstream message: {type(msg).__name__}")


def peek_kind(raw: "bytes | memoryview") -> int:
    """Read the frame kind off the fixed header without decoding the payload.

    A transport can tell a gradient frame from the control-plane kinds
    (close / control / telemetry) while the frame is still encoded.
    """
    buf = memoryview(raw)
    if len(buf) < _HEADER.size:
        raise ValueError("truncated frame (no header)")
    magic, kind, _shard = _HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise ValueError("bad magic: not a repro.comm frame")
    return kind


def frame_segments(frame: Frame) -> "list[bytes | memoryview]":
    """Serialise any frame as the segments a channel gathers into one write.

    A payload frame is its packed header followed by the codec's
    :func:`~repro.ps.codec.message_segments`: float32 arrays travel as
    views of their own memory, so the frame is valid only until the
    payload's arrays are next written — send it first.  Payload frames are
    timed as ``wire.encode_up`` (gradient) or ``wire.encode_down`` (diff /
    model).
    """
    if isinstance(frame, GradientFrame):
        with current_tracer().span(obs_names.WIRE_ENCODE_UP, cat="wire"):
            head = _HEADER.pack(FRAME_MAGIC, KIND_GRADIENT, frame.shard) + _LOSS.pack(frame.loss)
            return [head, *message_segments(frame.message)]
    if isinstance(frame, (DiffFrame, ModelFrame)):
        kind = KIND_DIFF if isinstance(frame, DiffFrame) else KIND_MODEL
        with current_tracer().span(obs_names.WIRE_ENCODE_DOWN, cat="wire"):
            head = _HEADER.pack(FRAME_MAGIC, kind, frame.shard) + _STALENESS.pack(
                frame.message.staleness
            )
            return [head, *message_segments(frame.message)]
    if isinstance(frame, TelemetryFrame):
        body = json.dumps({"spans": list(frame.spans)}, ensure_ascii=False).encode("utf-8")
        head = _HEADER.pack(FRAME_MAGIC, KIND_TELEMETRY, -1) + _TELEMETRY.pack(
            frame.worker_id, len(body)
        )
        return [head, body]
    if isinstance(frame, ControlFrame):
        return [
            _HEADER.pack(FRAME_MAGIC, KIND_CONTROL, -1)
            + _CONTROL.pack(frame.worker_id, _CONTROL_OPS.index(frame.op))
        ]
    if isinstance(frame, CloseFrame):
        err = frame.error.encode("utf-8") if frame.error is not None else b""
        samples = -1 if frame.samples_processed is None else frame.samples_processed
        state = -1 if frame.worker_state_bytes is None else frame.worker_state_bytes
        return [
            _HEADER.pack(FRAME_MAGIC, KIND_CLOSE, -1)
            + _CLOSE.pack(frame.worker_id, samples, state)
            + _ERR_LEN.pack(len(err))
            + err
        ]
    raise TypeError(f"cannot encode {type(frame).__name__}")


def encode_frame(frame: Frame) -> bytearray:
    """Serialise any frame to its wire representation: the
    :func:`frame_segments` joined into one exactly-sized ``bytearray``.

    A channel never needs this — it gathers the segments itself; the
    whole image is for callers that hold frames as bytes.
    """
    return join_segments(frame_segments(frame))


def decode_frame(raw: "bytes | bytearray | memoryview") -> Frame:
    """Inverse of :func:`encode_frame`.

    Dense payload layers come back as read-only float32 views of ``raw``
    (see :func:`repro.ps.codec.decode_message`): ``raw`` stays alive as
    long as they do and must not be rewritten.

    Bytes that are not a well-formed frame raise ``ValueError`` — also
    when a fixed-size field is cut short — so a serve loop has one
    exception to treat as "this peer sent garbage".  Payload frames are
    timed as ``wire.decode_up`` / ``wire.decode_down``.
    """
    try:
        return _decode_frame(memoryview(raw))
    except struct.error as exc:
        raise ValueError(f"truncated frame ({exc})") from None


def _decode_frame(buf: memoryview) -> Frame:
    if len(buf) < _HEADER.size:
        raise ValueError("truncated frame (no header)")
    magic, kind, shard = _HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise ValueError("bad magic: not a repro.comm frame")
    off = _HEADER.size
    if kind == KIND_GRADIENT:
        with current_tracer().span(obs_names.WIRE_DECODE_UP, cat="wire"):
            (loss,) = _LOSS.unpack_from(buf, off)
            msg = decode_message(buf[off + _LOSS.size :])
        if not isinstance(msg, GradientMessage):
            raise ValueError("gradient frame wraps a non-gradient message")
        return GradientFrame(msg, loss, shard=shard)
    if kind in (KIND_DIFF, KIND_MODEL):
        with current_tracer().span(obs_names.WIRE_DECODE_DOWN, cat="wire"):
            (staleness,) = _STALENESS.unpack_from(buf, off)
            msg = decode_message(buf[off + _STALENESS.size :])
        expected = DiffMessage if kind == KIND_DIFF else ModelMessage
        if not isinstance(msg, expected):
            raise ValueError(f"frame kind {kind} wraps a {type(msg).__name__}")
        msg.staleness = staleness  # the codec header has no staleness slot
        return reply_frame(msg, shard=shard)
    if kind == KIND_CLOSE:
        worker, samples, state = _CLOSE.unpack_from(buf, off)
        off += _CLOSE.size
        (err_len,) = _ERR_LEN.unpack_from(buf, off)
        off += _ERR_LEN.size
        error = bytes(buf[off : off + err_len]).decode("utf-8") if err_len else None
        return CloseFrame(
            worker_id=worker,
            samples_processed=samples if samples >= 0 else None,
            worker_state_bytes=state if state >= 0 else None,
            error=error,
        )
    if kind == KIND_TELEMETRY:
        worker, body_len = _TELEMETRY.unpack_from(buf, off)
        off += _TELEMETRY.size
        if len(buf) < off + body_len:
            raise ValueError("truncated telemetry frame body")
        body = json.loads(bytes(buf[off : off + body_len]).decode("utf-8"))
        return TelemetryFrame(worker_id=worker, spans=tuple(body.get("spans", [])))
    if kind == KIND_CONTROL:
        worker, op = _CONTROL.unpack_from(buf, off)
        if op >= len(_CONTROL_OPS):
            raise ValueError(f"unknown control op byte {op}")
        return ControlFrame(worker_id=worker, op=_CONTROL_OPS[op])
    raise ValueError(f"unknown frame kind {kind}")
