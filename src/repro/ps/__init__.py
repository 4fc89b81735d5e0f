"""Parameter-server substrate: messages, server, workers, trainers.

Two trainers share the server/worker core: :class:`ThreadedTrainer`
(worker threads over in-process channels) and :class:`RemoteTrainer`
(worker processes over OS pipes or TCP — one code path with elastic
membership, crash/straggler handling and checkpoint/restore whatever the
link; see :mod:`repro.ps.remote`, :mod:`repro.ps.membership`,
:mod:`repro.ps.checkpoint`).
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import decode_message, encode_message
from .membership import WorkerDirectory
from .messages import DiffMessage, GradientMessage, ModelMessage, payload_dense_nbytes, payload_nbytes
from .server import ParameterServer
from .sharded import ParameterShard, ShardedParameterServer
from .remote import RemoteTrainer
from .threaded import ThreadedTrainer
from .worker import WorkerNode

__all__ = [
    "encode_message",
    "decode_message",
    "GradientMessage",
    "DiffMessage",
    "ModelMessage",
    "payload_nbytes",
    "payload_dense_nbytes",
    "ParameterServer",
    "ParameterShard",
    "ShardedParameterServer",
    "RemoteTrainer",
    "WorkerDirectory",
    "WorkerNode",
    "ThreadedTrainer",
    "save_checkpoint",
    "load_checkpoint",
]
