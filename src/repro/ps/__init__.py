"""Parameter-server substrate: messages and their codec, the server
(single-lock or sharded), worker nodes, checkpoints and membership.

The engines that drive this substrate — threads, forked processes, the
simulator — live in :mod:`repro.exec`; ``python -m repro.ps`` is the
two-terminal deployment CLI over the socket backend's engine.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import decode_message, message_segments
from .membership import WorkerDirectory
from .messages import DiffMessage, GradientMessage, ModelMessage, payload_dense_nbytes, payload_nbytes
from .server import ParameterServer
from .sharded import ParameterShard, ShardedParameterServer
from .worker import WorkerNode

__all__ = [
    "message_segments",
    "decode_message",
    "GradientMessage",
    "DiffMessage",
    "ModelMessage",
    "payload_nbytes",
    "payload_dense_nbytes",
    "ParameterServer",
    "ParameterShard",
    "ShardedParameterServer",
    "WorkerDirectory",
    "WorkerNode",
    "save_checkpoint",
    "load_checkpoint",
]
