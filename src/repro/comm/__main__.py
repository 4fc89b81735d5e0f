"""Comm-layer smoke test: ``python -m repro.comm``.

Round-trips one frame of every kind — carrying one payload of every codec
type the repo produces — through a real OS pipe via
:class:`~repro.comm.pipe.PipeChannel`, then checks the decoded frames
reconstruct the same dense tensors (at float32 wire precision) and that
close-frame accounting survives intact.  Exits non-zero on failure, so
``make comm-smoke`` / CI can gate on it.
"""

from __future__ import annotations

import multiprocessing as mp
import sys

import numpy as np

from ..compression.coding import BitmapTensor, DenseTensor, QuantizedSparseTensor, SparseTensor
from ..compression.qsgd import QSGDTensor
from ..compression.terngrad import TernaryTensor
from ..ps.messages import DiffMessage, GradientMessage, ModelMessage
from .frames import CloseFrame, DiffFrame, GradientFrame, ModelFrame
from .pipe import PipeChannel

# float32 wire precision: the codec downcasts every value to f32
_WIRE_TOL = 1e-6


def _payload_zoo() -> "dict[str, object]":
    """One payload of every type a strategy or the server can emit."""
    rng = np.random.default_rng(7)
    shape = (4, 6)
    dense = rng.standard_normal(shape)
    mask = np.abs(dense) > 0.8
    return {
        "topk": SparseTensor(
            np.array([0, 5, 17], dtype=np.int64), np.array([0.5, -1.25, 2.0]), shape
        ),
        "randomk": SparseTensor(
            np.sort(rng.choice(dense.size, size=4, replace=False)).astype(np.int64),
            rng.standard_normal(4),
            shape,
        ),
        "threshold-bitmap": BitmapTensor.from_mask(dense, mask),
        "quantised-sparse": QuantizedSparseTensor(
            np.array([1, 9], dtype=np.int64), np.array([1, -1], dtype=np.int8), 0.75, shape
        ),
        "terngrad": TernaryTensor(
            rng.integers(-1, 2, size=dense.size).astype(np.int8), 0.5, shape
        ),
        "qsgd": QSGDTensor(
            rng.integers(-4, 5, size=dense.size).astype(np.int32), 3.25, 4, shape
        ),
        "dense-fallback": DenseTensor(dense),
        "ndarray": dense,
        "zero-nnz": SparseTensor(
            np.array([], dtype=np.int64), np.array([], dtype=np.float64), shape
        ),
        "scalar-shape": SparseTensor(np.array([0], dtype=np.int64), np.array([3.5]), ()),
    }


def _to_dense(payload: object) -> np.ndarray:
    return payload if isinstance(payload, np.ndarray) else payload.to_dense()


def _check_payload(name: str, sent: object, received: object, failures: "list[str]") -> None:
    a, b = _to_dense(sent), _to_dense(received)
    if a.shape != b.shape:
        failures.append(f"{name}: shape {a.shape} != {b.shape}")
    elif not np.allclose(a, b.astype(np.float64), atol=_WIRE_TOL, rtol=_WIRE_TOL):
        failures.append(f"{name}: values drifted beyond float32 wire precision")


def main() -> int:
    left, right = mp.Pipe(duplex=True)
    sender, receiver = PipeChannel(left), PipeChannel(right)
    failures: "list[str]" = []
    zoo = _payload_zoo()

    for i, (name, payload) in enumerate(zoo.items()):
        sender.send(GradientFrame(GradientMessage(i, {"layer": payload}, i), loss=0.25 * i))
        frame = receiver.recv()
        if not isinstance(frame, GradientFrame):
            failures.append(f"{name}: gradient frame decoded as {type(frame).__name__}")
            continue
        if frame.worker_id != i or abs(frame.loss - 0.25 * i) > 1e-12:
            failures.append(f"{name}: gradient frame header fields drifted")
        _check_payload(f"gradient[{name}]", payload, frame.message.payload["layer"], failures)

    diff_payload = {"layer": zoo["topk"]}
    sender.send(DiffFrame(DiffMessage(3, diff_payload, server_timestamp=42, staleness=2)))
    frame = receiver.recv()
    if isinstance(frame, DiffFrame) and frame.message.staleness == 2:
        _check_payload("diff", zoo["topk"], frame.message.payload["layer"], failures)
    else:
        failures.append("diff frame lost its type or staleness")

    model_payload = {"layer": _to_dense(zoo["ndarray"])}
    sender.send(ModelFrame(ModelMessage(1, model_payload, server_timestamp=7, staleness=0)))
    frame = receiver.recv()
    if isinstance(frame, ModelFrame):
        _check_payload("model", model_payload["layer"], frame.message.payload["layer"], failures)
    else:
        failures.append("model frame lost its type")

    for close in (
        CloseFrame(worker_id=2, samples_processed=640, worker_state_bytes=1 << 20),
        CloseFrame(worker_id=5, samples_processed=32, error="ZeroDivisionError: boom"),
        CloseFrame(worker_id=0),
    ):
        sender.send(close)
        frame = receiver.recv()
        if frame != close:
            failures.append(f"close frame round-trip changed: {close} -> {frame}")

    sender.close()
    receiver.close()

    print(f"comm loopback: {len(zoo)} payload types, {len(zoo) + 5} frames over an OS pipe")
    print(
        f"  wire bytes: {sender.wire_bytes_sent} sent == "
        f"{receiver.wire_bytes_received} received"
    )
    if sender.wire_bytes_sent != receiver.wire_bytes_received:
        failures.append("wire byte counters disagree between the two pipe ends")
    for failure in failures:
        print(f"  FAIL {failure}")
    print("comm loopback: OK" if not failures else f"comm loopback: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
