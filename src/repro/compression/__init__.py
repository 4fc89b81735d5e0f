"""Gradient compression: sparsifiers, quantiser, wire coding, accounting."""

from .adaptive import AdaptiveThresholdSparsifier
from .base import Sparsifier, sparsify, unsparsify
from .coding import (
    HEADER_BYTES,
    INDEX_BYTES,
    VALUE_BYTES,
    VALUE_DTYPE,
    BitmapTensor,
    DenseTensor,
    QuantizedSparseTensor,
    SparseTensor,
    bitmap_nbytes,
    dense_nbytes,
    encode_best,
    encode_indices,
    encode_mask,
    encode_sparse,
    sparse_nbytes,
)
from .qsgd import QSGDQuantizer, QSGDTensor
from .randomk import RandomKSparsifier
from .stats import CompressionStats
from .terngrad import TernaryTensor, TernGradQuantizer
from .topk import TopKSparsifier, topk_mask, topk_select, topk_threshold

__all__ = [
    "Sparsifier",
    "sparsify",
    "unsparsify",
    "TopKSparsifier",
    "topk_mask",
    "topk_select",
    "topk_threshold",
    "AdaptiveThresholdSparsifier",
    "RandomKSparsifier",
    "TernGradQuantizer",
    "QSGDQuantizer",
    "QSGDTensor",
    "TernaryTensor",
    "SparseTensor",
    "QuantizedSparseTensor",
    "BitmapTensor",
    "DenseTensor",
    "encode_sparse",
    "encode_best",
    "encode_mask",
    "encode_indices",
    "dense_nbytes",
    "sparse_nbytes",
    "bitmap_nbytes",
    "VALUE_BYTES",
    "VALUE_DTYPE",
    "INDEX_BYTES",
    "HEADER_BYTES",
    "CompressionStats",
]
