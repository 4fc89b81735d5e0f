"""Wire messages exchanged between workers and the parameter server.

Every message knows its byte size on the wire (*actual*) and the size the
same information would cost uncompressed (*dense equivalent*), which is what
the communication model of ``repro.sim`` and the compression accounting
consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..compression.coding import SparseTensor, dense_nbytes

__all__ = ["GradientMessage", "DiffMessage", "ModelMessage", "payload_nbytes", "payload_dense_nbytes"]

Payload = "Mapping[str, SparseTensor] | Mapping[str, np.ndarray]"


def payload_nbytes(payload: Payload) -> int:
    """Actual wire bytes of a per-layer payload.

    Duck-typed: anything carrying its own ``nbytes()`` (COO, ternary, or
    quantised-sparse tensors) reports directly; plain ndarrays cost dense
    float32.
    """
    total = 0
    for arr in payload.values():
        if isinstance(arr, np.ndarray):
            total += dense_nbytes(arr.size)
        else:
            total += arr.nbytes()
    return total


def payload_dense_nbytes(payload: Payload) -> int:
    """Bytes the same payload would cost sent dense."""
    total = 0
    for arr in payload.values():
        total += dense_nbytes(math.prod(arr.shape))
    return total


@dataclass
class GradientMessage:
    """Upstream: worker → server.  ``encode(g_{k,t})`` of Algorithms 1/3."""

    worker_id: int
    payload: Payload
    local_iteration: int

    def nbytes(self) -> int:
        return payload_nbytes(self.payload)

    def dense_nbytes(self) -> int:
        return payload_dense_nbytes(self.payload)


@dataclass
class DiffMessage:
    """Downstream: server → worker.  ``encode(G_{k,t+1})`` of Algorithm 2."""

    worker_id: int
    payload: "Mapping[str, SparseTensor]"
    server_timestamp: int
    staleness: int

    def nbytes(self) -> int:
        return payload_nbytes(self.payload)

    def dense_nbytes(self) -> int:
        return payload_dense_nbytes(self.payload)


@dataclass
class ModelMessage:
    """Downstream for vanilla ASGD: the full global model, dense."""

    worker_id: int
    payload: "Mapping[str, np.ndarray]"
    server_timestamp: int
    staleness: int

    def nbytes(self) -> int:
        return payload_dense_nbytes(self.payload)

    def dense_nbytes(self) -> int:
        return payload_dense_nbytes(self.payload)
