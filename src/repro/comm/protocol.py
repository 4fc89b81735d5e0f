"""The worker protocol loop shared by the threaded, process and socket backends.

Algorithms 1 and 3 describe one worker loop — compute → upload → download
→ apply — and before this module each backend carried its own copy with
its own transport welded in.  :func:`run_worker_loop` is that loop written
once against the :class:`~repro.comm.channel.Channel` contract; the
backend chooses the channel (in-process dispatch, OS pipe, TCP) and the loop
stays identical, ending with an explicit
:class:`~repro.comm.frames.CloseFrame` carrying the worker's final local
accounting — on the success path *and* on the exception path (where the
close frame also names the error, so the server side can report a partial
result instead of hanging or guessing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .channel import ChannelClosed
from .frames import (
    CONTROL_JOIN,
    CONTROL_LEAVE,
    CloseFrame,
    ControlFrame,
    GradientFrame,
    TelemetryFrame,
)

if TYPE_CHECKING:
    from ..ps.worker import WorkerNode
    from .channel import Channel

__all__ = ["run_worker_loop"]


def run_worker_loop(
    node: "WorkerNode",
    channel: "Channel",
    iterations: int,
    tracer: "object | None" = None,
    on_step: "Callable[[WorkerNode], None] | None" = None,
    on_iteration: "Callable[[int], None] | None" = None,
    ship_telemetry: bool = False,
    register: bool = False,
) -> None:
    """Drive ``node`` through ``iterations`` exchanges over ``channel``.

    ``on_step`` runs after each applied reply (trainers record loss curves
    there); ``on_iteration`` runs before each compute step and exists for
    fault injection (e.g. the process backend's hard-crash hook).  The
    close frame is sent from a ``finally`` block: a worker that raises
    still reports the samples it processed and the error that killed it.

    ``ship_telemetry`` makes the loop send a
    :class:`~repro.comm.frames.TelemetryFrame` (the tracer's spans) just
    before the close frame — the process and socket backends set it so
    worker spans reach the server's merged trace.
    In-process backends share the parent tracer and leave it off.

    ``register`` runs the elastic-membership handshake around the loop:
    a join :class:`~repro.comm.frames.ControlFrame` before the first
    iteration — whose :class:`~repro.comm.frames.ModelFrame` reply
    installs θ_t on the replica, so a late joiner starts from the live
    model, not θ_0 — and a leave frame on the success path before the
    close frame (a crashed worker sends neither; the server's EOF
    handling deregisters it).
    """
    tracer = tracer if tracer is not None else current_tracer()
    error: "str | None" = None
    try:
        if register:
            channel.send(ControlFrame(node.worker_id, CONTROL_JOIN))
            reply = channel.recv()
            with tracer.span(obs_names.WORKER_APPLY, cat="worker", worker=node.worker_id):
                node.apply_reply(reply.message)
        for i in range(iterations):
            if on_iteration is not None:
                on_iteration(i)
            with tracer.span(
                obs_names.WORKER_STEP, cat="worker", worker=node.worker_id, iteration=i
            ):
                with tracer.span(obs_names.WORKER_COMPUTE, cat="worker", worker=node.worker_id):
                    msg = node.compute_step()
                channel.send(GradientFrame(msg, node.last_loss))
                reply_msg = channel.recv().message
                with tracer.span(obs_names.WORKER_APPLY, cat="worker", worker=node.worker_id):
                    node.apply_reply(reply_msg)
            if on_step is not None:
                on_step(node)
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        try:
            if register and error is None:
                channel.send(ControlFrame(node.worker_id, CONTROL_LEAVE))
            if ship_telemetry and getattr(tracer, "enabled", False):
                channel.send(
                    TelemetryFrame(worker_id=node.worker_id, spans=tuple(tracer.records()))
                )
            channel.send(
                CloseFrame(
                    worker_id=node.worker_id,
                    samples_processed=node.samples_processed,
                    worker_state_bytes=node.worker_state_bytes(),
                    error=error,
                )
            )
        except (OSError, ChannelClosed):
            pass  # transport already gone: the server side reports the crash
        finally:
            channel.close()
