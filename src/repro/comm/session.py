"""The worker's side of the protocol with no I/O: :class:`WorkerSession`.

:func:`repro.comm.protocol.run_worker_loop` drives it over pipes and
sockets, and the simulated and sync engines over virtual links.  It
imports no transport, reads no clock and calls no channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from .frames import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    DiffFrame,
    GradientFrame,
    ModelFrame,
    TelemetryFrame,
)

if TYPE_CHECKING:
    from ..ps.worker import WorkerNode

__all__ = ["WorkerSession"]


class WorkerSession:
    """One worker's frames, in protocol order (Algorithms 1 and 3): a
    :meth:`join`, then per step an :meth:`upload` and the :meth:`apply`
    of its reply, then the :meth:`closing` frames.

    The node's ``compute_step`` and ``apply_reply`` are looked up on the
    node at each call, so a wrapper bound on the instance sees every call.
    """

    __slots__ = ("node",)

    def __init__(self, node: "WorkerNode") -> None:
        self.node = node

    def join(self) -> ControlFrame:
        """The membership join; its ModelFrame reply installs θ_t."""
        return ControlFrame(self.node.worker_id, CONTROL_JOIN)

    def upload(self) -> GradientFrame:
        """Run one compute step; its gradient frame carries the step's loss."""
        node = self.node
        return GradientFrame(node.compute_step(), node.last_loss)

    def apply(self, reply) -> None:
        """Apply a DiffFrame/ModelFrame to the replica; any other frame
        raises ``ValueError`` naming its kind, and nothing is applied."""
        if not isinstance(reply, (DiffFrame, ModelFrame)):
            raise ValueError(
                f"worker {self.node.worker_id} expected a reply, got a {type(reply).__name__}"
            )
        self.node.apply_reply(reply.message)

    def closing(self, error: "str | None" = None, spans: "Callable | None" = None) -> Iterator:
        """The frames that end the session, each built when taken: a leave
        only on success, telemetry of ``spans()`` only when given (so it
        holds the leave's own spans), then the close frame with the
        worker's accounting and ``error``."""
        node = self.node
        if error is None:
            yield ControlFrame(node.worker_id, CONTROL_LEAVE)
        if spans is not None:
            yield TelemetryFrame(worker_id=node.worker_id, spans=tuple(spans()))
        yield CloseFrame(
            worker_id=node.worker_id,
            samples_processed=node.samples_processed,
            worker_state_bytes=node.worker_state_bytes(),
            error=error,
        )
