"""The worker session's driver over a channel, shared by the process and
socket backends: :func:`run_worker_loop` sends what a
:class:`~repro.comm.session.WorkerSession` builds and hands it what the
channel receives, and owns the spans, the I/O and the error capture.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .channel import ChannelClosed
from .session import WorkerSession

if TYPE_CHECKING:
    from ..ps.worker import WorkerNode
    from .channel import Channel

__all__ = ["run_worker_loop"]


def run_worker_loop(
    node: "WorkerNode",
    channel: "Channel",
    iterations: int,
    on_iteration: "Callable[[int], None] | None" = None,
) -> None:
    """Drive ``node`` through ``iterations`` exchanges over ``channel``.

    ``on_iteration`` runs before each compute step and exists for fault
    injection (e.g. the remote engine's hard-crash hook).  The closing
    frames are sent from a ``finally`` block, so a worker that raises
    still reports the samples it processed and the error that killed it;
    a send that fails there is left to the server's EOF handling.  When
    the ambient tracer is enabled, its spans travel to the server in the
    telemetry frame, so worker spans reach the server's merged trace.
    """
    tracer = current_tracer()
    session = WorkerSession(node)
    wid = node.worker_id
    error: "str | None" = None
    try:
        channel.send(session.join())
        reply = channel.recv()
        with tracer.span(obs_names.WORKER_APPLY, cat="worker", worker=wid):
            session.apply(reply)
        for i in range(iterations):
            if on_iteration is not None:
                on_iteration(i)
            with tracer.span(obs_names.WORKER_STEP, cat="worker", worker=wid, iteration=i):
                with tracer.span(obs_names.WORKER_COMPUTE, cat="worker", worker=wid):
                    upload = session.upload()
                channel.send(upload)
                reply = channel.recv()
                with tracer.span(obs_names.WORKER_APPLY, cat="worker", worker=wid):
                    session.apply(reply)
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        try:
            for frame in session.closing(error, tracer.records if tracer.enabled else None):
                channel.send(frame)
        except (OSError, ChannelClosed):
            pass  # transport already gone: the server side reports the crash
        finally:
            channel.close()
