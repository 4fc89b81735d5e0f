"""Sparse/dense wire encoding with byte-accurate size accounting.

The paper's ``encode()`` packs nonzero gradients into coordinate (COO)
format; ``decode()`` unpacks them.  Wire sizes follow the deployment the
paper measures: 32-bit float values and 32-bit flat indices, so a sparse
layer costs ``nnz * 8`` bytes against ``n * 4`` dense — sparsification wins
whenever density < 50%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VALUE_BYTES",
    "VALUE_DTYPE",
    "INDEX_BYTES",
    "HEADER_BYTES",
    "SparseTensor",
    "DenseTensor",
    "BitmapTensor",
    "QuantizedSparseTensor",
    "encode_sparse",
    "encode_mask",
    "encode_indices",
    "encode_best",
    "cheapest_format",
    "dense_nbytes",
    "sparse_nbytes",
    "bitmap_nbytes",
    "CHUNK",
    "indices_above",
]

VALUE_BYTES = 4  # float32 on the wire
VALUE_DTYPE = np.dtype(np.float32)  # the dtype those 4 bytes hold
INDEX_BYTES = 4  # uint32 flat index
HEADER_BYTES = 16  # layer id, nnz, shape descriptor, dtype tag


@dataclass(frozen=True)
class SparseTensor:
    """COO encoding of one layer's update: flat indices + values + shape.

    Values produced by the ``encode_*`` functions are float32 — the wire
    dtype the ``VALUE_BYTES = 4`` accounting (and the byte codec) assume —
    so what a worker decodes is exactly what the byte counts claim.
    Hand-constructed instances may carry any float dtype.
    """

    indices: np.ndarray  # (nnz,) intp flat indices, strictly increasing
    values: np.ndarray  # (nnz,) float32 from the encoders (VALUE_DTYPE)
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def density(self) -> float:
        n = math.prod(self.shape)
        return self.nnz / n if n else 0.0

    def nbytes(self) -> int:
        """Bytes on the wire for this layer (COO payload + header)."""
        return HEADER_BYTES + self.nnz * (VALUE_BYTES + INDEX_BYTES)

    def to_dense(self, dtype: "np.dtype | type | str" = np.float64) -> np.ndarray:
        out = np.zeros(math.prod(self.shape), dtype=dtype)
        out[self.indices] = self.values
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        """Accumulate this sparse update into ``dest`` in place."""
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self.indices] += self.values


@dataclass(frozen=True)
class DenseTensor:
    """Dense fallback with the same payload interface as the sparse codecs.

    Returned by :func:`encode_best` when a layer is too dense for either
    sparse format — e.g. a model difference after very long staleness."""

    data: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def density(self) -> float:
        return self.nnz / self.data.size if self.data.size else 0.0

    def nbytes(self) -> int:
        return dense_nbytes(self.data.size)

    def to_dense(self, dtype: "np.dtype | type | str | None" = None) -> np.ndarray:
        return np.array(self.data, dtype=dtype)  # None keeps the data's dtype

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.data.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.data.shape}")
        dest += self.data


@dataclass(frozen=True)
class BitmapTensor:
    """Bitmap-coded sparse layer: one presence bit per element + values.

    COO pays 8 bytes per nonzero; a bitmap pays n/8 bytes up front and 4
    per nonzero, so it wins above ~3% density.  The server's model
    difference ``G_k`` *densifies* with staleness (it accumulates other
    workers' updates), which is exactly the regime where this matters —
    :func:`encode_best` picks the cheaper of the two per layer.

    The bitmap is a *wire* format only.  In memory this is COO — sorted
    flat ``indices`` + ``values``, exactly like :class:`SparseTensor` — so
    applying it is an O(nnz) scatter; the byte codec packs the presence
    bits when it writes the layer (:meth:`packed_bitmap`) and un-packs them
    once when it reads one (:meth:`from_packed`).  :meth:`nbytes` prices the
    wire form.
    """

    indices: np.ndarray  # (nnz,) flat indices, strictly increasing
    values: np.ndarray  # (nnz,) float32 from the encoders, in flat index order
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def density(self) -> float:
        n = math.prod(self.shape)
        return self.nnz / n if n else 0.0

    def nbytes(self) -> int:
        return bitmap_nbytes(math.prod(self.shape), self.nnz)

    def to_dense(self, dtype: "np.dtype | type | str" = np.float64) -> np.ndarray:
        out = np.zeros(math.prod(self.shape), dtype=dtype)
        out[self.indices] = self.values
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self.indices] += self.values

    def packed_bitmap(self) -> np.ndarray:
        """The wire bitmap: ``ceil(n/8)`` uint8, bit ``i % 8`` of byte
        ``i // 8`` set for every flat index ``i`` present."""
        bits = np.zeros(math.prod(self.shape), dtype=np.uint8)
        bits[self.indices] = 1
        return np.packbits(bits, bitorder="little")

    @staticmethod
    def from_packed(
        bitmap: np.ndarray, values: np.ndarray, shape: tuple[int, ...]
    ) -> "BitmapTensor":
        """Decode-side constructor: un-pack a wire bitmap into indices."""
        n = math.prod(shape)
        if len(bitmap) != (n + 7) // 8:
            raise ValueError("bitmap length does not match shape")
        bits = np.unpackbits(bitmap, bitorder="little")
        return BitmapTensor(np.flatnonzero(bits[:n]), values, shape)

    @staticmethod
    def from_mask(arr: np.ndarray, mask: np.ndarray) -> "BitmapTensor":
        idx = np.flatnonzero(mask.reshape(-1))
        return BitmapTensor(idx, arr.reshape(-1)[idx].astype(VALUE_DTYPE), arr.shape)


@dataclass(frozen=True)
class QuantizedSparseTensor:
    """Ternary-quantised sparse layer: COO indices + 2-bit signs + one scale.

    The §6 future-work combination of DGS and TernGrad: values at the
    selected coordinates are reduced to {−1, 0, +1}·scale, shrinking the
    per-element value cost from 32 bits to 2.
    """

    indices: np.ndarray  # (nnz,) flat indices
    signs: np.ndarray  # (nnz,) int8 in {-1, 0, 1}
    scale: float
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.signs):
            raise ValueError("indices/signs length mismatch")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def nbytes(self) -> int:
        return HEADER_BYTES + VALUE_BYTES + self.nnz * INDEX_BYTES + (2 * self.nnz + 7) // 8

    def to_dense(self, dtype: "np.dtype | type | str" = np.float64) -> np.ndarray:
        out = np.zeros(math.prod(self.shape), dtype=dtype)
        out[self.indices] = self.signs * self.scale
        return out.reshape(self.shape)

    def add_into(self, dest: np.ndarray) -> None:
        if dest.shape != self.shape:
            raise ValueError(f"shape mismatch: {dest.shape} vs {self.shape}")
        dest.reshape(-1)[self.indices] += self.signs * self.scale


#: elements per pass of every streamed kernel (:func:`indices_above`,
#: ``add_scaled``): 128 KiB of float32 scratch, small enough to stay in L2
#: between the passes over one chunk (measured on the 786 432-element layer:
#: ``add_scaled`` 0.72 ms at 32 Ki, 0.90 at 8 Ki, 0.94 at 256 Ki)
CHUNK = 32768


def indices_above(flat: np.ndarray, lo) -> np.ndarray:
    """Ascending indices where ``|flat| > lo`` or ``flat`` is NaN (NaN sorts
    largest); ``lo = 0`` is the nonzero scan.

    Streamed: ``|x|``, the compare and ``flatnonzero`` run per chunk of
    :data:`CHUNK` elements through chunk buffers allocated per call, so
    nothing of the layer's size is allocated beside the result.
    """
    n = flat.size
    keep = np.empty(min(n, CHUNK), dtype=bool)
    mag = None if lo == 0 else np.empty(keep.size, dtype=flat.dtype)
    found = []
    for start in range(0, n, CHUNK):
        chunk = flat[start : start + CHUNK]
        above = keep[: chunk.size]
        if mag is None:  # |x| > 0 or NaN is x != 0: no |x| pass
            np.not_equal(chunk, 0, out=above)
        else:
            np.less_equal(np.abs(chunk, out=mag[: chunk.size]), lo, out=above)
            np.logical_not(above, out=above)
        idx = np.flatnonzero(above)
        if idx.size:
            idx += start
            found.append(idx)
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


def _gather_values(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``flat[idx]`` as a fresh float32 wire-value array."""
    return flat[idx].astype(VALUE_DTYPE, copy=False)


def encode_sparse(arr: np.ndarray) -> SparseTensor:
    """COO-encode the nonzeros of ``arr`` (the paper's ``encode()``).

    Values are cast to float32 — the wire dtype the byte accounting
    assumes — at encode time.
    """
    flat = arr.reshape(-1)
    idx = np.flatnonzero(flat)
    return SparseTensor(idx, _gather_values(flat, idx), arr.shape)


def encode_mask(arr: np.ndarray, mask: np.ndarray) -> SparseTensor:
    """COO-encode ``arr`` at the positions selected by boolean ``mask``."""
    if mask.shape != arr.shape:
        raise ValueError("mask shape must match array shape")
    flat = arr.reshape(-1)
    idx = np.flatnonzero(mask.reshape(-1))
    return SparseTensor(idx, _gather_values(flat, idx), arr.shape)


def encode_indices(
    arr: np.ndarray, indices: np.ndarray, assume_sorted: bool = False
) -> SparseTensor:
    """COO-encode ``arr`` at the given flat ``indices`` (fused-select extract).

    The extract half of ``topk_select``: when a selection kernel already
    holds the chosen flat indices (e.g. straight out of ``_topk_indices``),
    this builds the wire tensor in O(nnz·log nnz) — no boolean mask, no
    O(n) ``flatnonzero`` scan.  Indices are sorted ascending to match
    :func:`encode_mask` output exactly; pass ``assume_sorted=True`` to
    skip the sort (the array is then used as-is, not copied).
    """
    flat = arr.reshape(-1)
    idx = np.asarray(indices)
    if not assume_sorted:
        idx = np.sort(idx)
    return SparseTensor(idx, _gather_values(flat, idx), arr.shape)


def cheapest_format(n: int, nnz: int) -> type:
    """The one byte rule: the payload class that ships ``nnz`` nonzeros of
    an ``n``-element layer in the fewest wire bytes.

    Break-evens are nnz·8 (COO) vs n/8 + nnz·4 (bitmap) vs n·4 (dense);
    ties go to COO, then bitmap.  Every producer of a model difference
    (:func:`encode_best`'s dense scan, the tracker's journal path) asks
    here, so two paths cannot pick different formats for one ``(n, nnz)``.
    """
    coo = sparse_nbytes(nnz)
    bmp = bitmap_nbytes(n, nnz)
    best = min(coo, bmp, dense_nbytes(n))
    if best == coo:
        return SparseTensor
    if best == bmp:
        return BitmapTensor
    return DenseTensor


def encode_best(arr: np.ndarray) -> "SparseTensor | BitmapTensor | DenseTensor":
    """Encode with the cheapest of COO / bitmap / dense for this density.

    Used for the downstream model difference, whose density grows with
    staleness; the format is :func:`cheapest_format`'s choice.  The
    nonzero scan is :func:`indices_above` at 0.
    """
    flat = arr.reshape(-1)
    idx = indices_above(flat, 0)
    fmt = cheapest_format(flat.size, idx.size)
    if fmt is DenseTensor:
        return DenseTensor(arr.astype(VALUE_DTYPE))
    return fmt(idx, _gather_values(flat, idx), arr.shape)


def dense_nbytes(shape_or_size) -> int:
    """Wire bytes for a dense float32 tensor (+ header)."""
    n = int(np.prod(shape_or_size)) if not np.isscalar(shape_or_size) else int(shape_or_size)
    return HEADER_BYTES + n * VALUE_BYTES


def sparse_nbytes(nnz: int) -> int:
    """Wire bytes for a COO tensor with ``nnz`` entries (+ header)."""
    return HEADER_BYTES + nnz * (VALUE_BYTES + INDEX_BYTES)


def bitmap_nbytes(n: int, nnz: int) -> int:
    """Wire bytes for a bitmap-coded tensor: 1 bit/element + values."""
    return HEADER_BYTES + (n + 7) // 8 + nnz * VALUE_BYTES
