"""Binary wire codec — the paper's ``encode()`` / ``decode()`` as real bytes.

The simulator accounts bytes analytically; this codec *produces* them, so
the remote engine's pipes and sockets ship actual packed buffers:

* little-endian struct headers per message and per layer;
* float32 values, uint32 flat indices (COO), 2-bit packed ternary signs;
* layer names interned once per message (length-prefixed UTF-8).

Encoded sizes match the analytic accounting of ``repro.compression.coding``
up to the name table (which the analytic model folds into the fixed
per-layer header) — asserted by tests.

Format (version 1)::

    message  := magic u16 | version u8 | kind u8 | worker u32 | meta i64 |
                nlayers u16 | layer*
    layer    := name_len u16 | tag u8 | name bytes | body
    tag 0 (dense)   : ndim u8 | dims u32* | float32 data
    tag 1 (coo)     : ndim u8 | dims u32* | nnz u32 | uint32 idx* | float32 val*
    tag 2 (ternary) : ndim u8 | dims u32* | nnz u32 | scale f32 |
                      uint32 idx* | packed 2-bit signs
    tag 3 (bitmap)  : ndim u8 | dims u32* | nnz u32 | bitmap | float32 val*

The bitmap exists only here: a ``BitmapTensor`` holds flat indices in
memory, packs them into presence bits when tag 3 is written and is rebuilt
from them (one ``unpackbits``) when tag 3 is read.

Copies only where a cast is needed: :func:`message_segments` hands a
channel the message as segments — headers and small arrays packed into
byte runs, every C-contiguous array already in its wire dtype as a
``memoryview`` of its own memory, any other array cast-copied once — and
the channel gathers them into one ``sendmsg``; :func:`join_segments`
copies them into one buffer for a caller that needs the whole image.
:func:`decode_message` hands a dense layer back as a read-only float32
*view* of the buffer it was given, which the view keeps alive — so whoever
owns that buffer must never rewrite it (the transports allocate a fresh
one per frame).  Sparse indices and values are owned copies.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..compression.coding import BitmapTensor, DenseTensor, QuantizedSparseTensor, SparseTensor
from .messages import DiffMessage, GradientMessage, ModelMessage

__all__ = ["message_segments", "join_segments", "decode_message", "MAGIC"]

MAGIC = 0xD65  # "DGS"
_VERSION = 1
_KINDS = {GradientMessage: 0, DiffMessage: 1, ModelMessage: 2}
_KIND_NAMES = {0: "gradient", 1: "diff", 2: "model"}

_HEADER = struct.Struct("<HBBIq H")
_LAYER_HEAD = struct.Struct("<HB")  # name_len, tag  (the name follows)
_NNZ = struct.Struct("<I")
_NNZ_SCALE = struct.Struct("<If")

_U1 = np.dtype("u1")
_U4 = np.dtype("<u4")
_F4 = np.dtype("<f4")

#: arrays below this many bytes are packed beside their headers: a segment
#: of its own would cost the sender more than copying it does
_SMALL = 4096


def _unpack_dims(buf: memoryview, off: int) -> tuple[tuple[int, ...], int]:
    (ndim,) = struct.unpack_from("<B", buf, off)
    off += 1
    dims = struct.unpack_from(f"<{ndim}I", buf, off)
    off += 4 * ndim
    return tuple(dims), off


def _pack_signs(signs: np.ndarray) -> np.ndarray:
    """Pack int8 {-1,0,1} into 2 bits each (00=0, 01=+1, 10=−1)."""
    codes = np.where(signs > 0, 1, np.where(signs < 0, 2, 0)).astype(np.uint8)
    pad = (-len(codes)) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    return quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)


def _unpack_signs(raw: bytes, nnz: int) -> np.ndarray:
    packed = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(len(packed) * 4, dtype=np.uint8)
    codes[0::4] = packed & 3
    codes[1::4] = (packed >> 2) & 3
    codes[2::4] = (packed >> 4) & 3
    codes[3::4] = (packed >> 6) & 3
    codes = codes[:nnz]
    return np.where(codes == 1, 1, np.where(codes == 2, -1, 0)).astype(np.int8)


def _layer_parts(layer) -> "tuple[int, tuple[int, ...], bytes, list[tuple[np.ndarray, np.dtype]]]":
    """One layer's wire tag, shape, the fixed fields that follow its dims,
    and the arrays after those, each with the dtype it has on the wire."""
    if isinstance(layer, SparseTensor):
        arrays = [(layer.indices, _U4), (layer.values, _F4)]
        return 1, layer.shape, _NNZ.pack(layer.nnz), arrays
    if isinstance(layer, QuantizedSparseTensor):
        arrays = [(layer.indices, _U4), (_pack_signs(layer.signs), _U1)]
        return 2, layer.shape, _NNZ_SCALE.pack(layer.nnz, layer.scale), arrays
    if isinstance(layer, BitmapTensor):
        arrays = [(layer.packed_bitmap(), _U1), (layer.values, _F4)]
        return 3, layer.shape, _NNZ.pack(layer.nnz), arrays
    if isinstance(layer, DenseTensor):
        layer = layer.data  # read in place: to_dense() would copy it first
    elif not isinstance(layer, np.ndarray):  # TernaryTensor and friends: ship f32
        layer = layer.to_dense()
    return 0, layer.shape, b"", [(layer, _F4)]


def _decode_layer(buf: memoryview, off: int):
    name_len, tag = _LAYER_HEAD.unpack_from(buf, off)
    off += _LAYER_HEAD.size
    name = bytes(buf[off : off + name_len]).decode("utf-8")
    off += name_len
    shape, off = _unpack_dims(buf, off)
    n = math.prod(shape)
    if tag == 0:  # a view of the frame, not a copy (read-only: ``buf`` is)
        data = np.frombuffer(buf, dtype=_F4, count=n, offset=off)
        off += 4 * n
        return name, data.reshape(shape), off
    if tag == 1:
        (nnz,) = _NNZ.unpack_from(buf, off)
        off += 4
        idx = np.frombuffer(buf, dtype="<u4", count=nnz, offset=off).astype(np.int64)
        off += 4 * nnz
        vals = np.frombuffer(buf, dtype=_F4, count=nnz, offset=off).astype(np.float32)
        off += 4 * nnz
        return name, SparseTensor(idx, vals, shape), off
    if tag == 2:
        nnz, scale = _NNZ_SCALE.unpack_from(buf, off)
        off += 8
        idx = np.frombuffer(buf, dtype="<u4", count=nnz, offset=off).astype(np.int64)
        off += 4 * nnz
        nbytes = (2 * nnz + 7) // 8
        signs = _unpack_signs(bytes(buf[off : off + nbytes]), nnz)
        off += nbytes
        return name, QuantizedSparseTensor(idx, signs, float(scale), shape), off
    if tag == 3:
        (nnz,) = _NNZ.unpack_from(buf, off)
        off += 4
        bm_len = (n + 7) // 8
        bitmap = np.frombuffer(buf, dtype=np.uint8, count=bm_len, offset=off)
        off += bm_len
        vals = np.frombuffer(buf, dtype=_F4, count=nnz, offset=off).astype(np.float32)
        off += 4 * nnz
        return name, BitmapTensor.from_packed(bitmap, vals, shape), off
    raise ValueError(f"unknown layer tag {tag}")


def message_segments(
    msg: "GradientMessage | DiffMessage | ModelMessage",
) -> "list[bytes | memoryview]":
    """Serialise a PS message as a list of segments whose concatenation is
    its wire representation.

    Headers, and arrays under :data:`_SMALL` bytes, are packed together
    into byte runs.  An array that is C-contiguous and already in its wire
    dtype (float32 values, a float32 arena's layers) is not copied at all:
    it becomes a ``memoryview`` segment over its own memory, valid until
    the array is next written.  Any other array is cast-copied once into
    its run (float64 → float32 and int64 → uint32 happen inside that copy).
    """
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    meta = msg.local_iteration if isinstance(msg, GradientMessage) else msg.server_timestamp
    segments: "list[bytes | memoryview]" = []
    run: list = [_HEADER.pack(MAGIC, _VERSION, kind, msg.worker_id, meta, len(msg.payload))]
    for name, layer in msg.payload.items():
        name_b = name.encode("utf-8")
        tag, shape, fixed, arrays = _layer_parts(layer)
        run.append(
            struct.pack(
                f"<HB{len(name_b)}sB{len(shape)}I{len(fixed)}s",
                len(name_b), tag, name_b, len(shape), *shape, fixed,
            )
        )
        for arr, dt in arrays:
            if arr.dtype == dt and arr.flags.c_contiguous and arr.nbytes >= _SMALL:
                if run:
                    segments.append(_packed(run))
                    run = []
                segments.append(memoryview(arr.reshape(-1).view(_U1)))
            else:
                run.append((arr, dt))
    if run:
        segments.append(_packed(run))
    return segments


def _packed(run: list) -> memoryview:
    """One exactly-sized buffer holding ``run``'s headers (bytes) and
    ``(array, wire dtype)`` pairs back to back; nothing zero-fills it."""
    sizes = [len(p) if isinstance(p, bytes) else p[0].size * p[1].itemsize for p in run]
    buf = np.empty(sum(sizes), dtype=_U1)
    off = 0
    for piece, size in zip(run, sizes):
        if isinstance(piece, bytes):
            buf[off : off + size] = np.frombuffer(piece, dtype=_U1)
        else:
            arr, dt = piece
            np.copyto(buf[off : off + size].view(dt).reshape(arr.shape), arr, casting="unsafe")
        off += size
    return memoryview(buf)


def join_segments(segments: "list[bytes | memoryview]") -> bytearray:
    """The segments of a message or frame copied into one exactly-sized
    ``bytearray`` (what a caller that needs the whole wire image holds)."""
    buf = bytearray(sum(map(len, segments)))
    dest = memoryview(buf)  # a bytearray slice assignment would copy twice
    off = 0
    for seg in segments:
        dest[off : off + len(seg)] = seg
        off += len(seg)
    return buf


def decode_message(raw: "bytes | bytearray | memoryview"):
    """Inverse of :func:`message_segments` (values come back as float32).

    Dense layers are read-only float32 views of ``raw`` and keep it alive;
    ``raw`` must not be rewritten while any of them is.  Sparse indices and
    values are owned copies (the tracker's journal keeps references to
    them).
    """
    buf = memoryview(raw).toreadonly()
    magic, version, kind, worker, meta, nlayers = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError("bad magic: not a DGS wire message")
    if version != _VERSION:
        raise ValueError(f"unsupported codec version {version}")
    off = _HEADER.size
    payload: "OrderedDict[str, object]" = OrderedDict()
    for _ in range(nlayers):
        name, layer, off = _decode_layer(buf, off)
        payload[name] = layer
    if kind == 0:
        return GradientMessage(worker, payload, meta)
    if kind == 1:
        return DiffMessage(worker, payload, meta, staleness=0)
    return ModelMessage(worker, payload, meta, staleness=0)
