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

One copy per hop: :func:`encode_message` sizes the message, allocates one
``bytearray`` and cast-copies every array straight into it;
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

__all__ = ["encode_message", "decode_message", "MAGIC"]

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


def encode_message(
    msg: "GradientMessage | DiffMessage | ModelMessage", reserve: int = 0
) -> bytearray:
    """Serialise a PS message to its wire representation.

    The message is sized first and written into one exactly-sized buffer:
    every array is cast-copied once (float64 → float32 and int64 → uint32
    happen inside that copy), nothing is concatenated.  ``reserve`` leaves
    that many zero bytes ahead of the message for the caller's own header
    (:func:`repro.comm.frames.encode_frame` packs its header there).
    """
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    meta = msg.local_iteration if isinstance(msg, GradientMessage) else msg.server_timestamp
    layers = []
    size = reserve + _HEADER.size
    for name, layer in msg.payload.items():
        name_b = name.encode("utf-8")
        tag, shape, fixed, arrays = _layer_parts(layer)
        head = struct.pack(
            f"<HB{len(name_b)}sB{len(shape)}I{len(fixed)}s",
            len(name_b), tag, name_b, len(shape), *shape, fixed,
        )
        layers.append((head, arrays))
        size += len(head) + sum(arr.size * dt.itemsize for arr, dt in arrays)
    buf = bytearray(size)
    _HEADER.pack_into(buf, reserve, MAGIC, _VERSION, kind, msg.worker_id, meta, len(layers))
    off = reserve + _HEADER.size
    for head, arrays in layers:
        buf[off : off + len(head)] = head
        off += len(head)
        for arr, dt in arrays:
            dest = np.frombuffer(buf, dtype=dt, count=arr.size, offset=off)
            np.copyto(dest.reshape(arr.shape), arr, casting="unsafe")
            off += dest.nbytes
    return buf


def decode_message(raw: "bytes | bytearray | memoryview"):
    """Inverse of :func:`encode_message` (values come back as float32).

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
