"""The serve loop's logic with no I/O: :class:`ServeCore`.

:func:`repro.comm.service.serve_channels` drives it behind pipes and
sockets; a test drives it in memory.  It imports no transport and
reads no clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .frames import CloseFrame, ControlFrame, GradientFrame, TelemetryFrame, decode_frame

if TYPE_CHECKING:
    from ..compression.stats import CompressionStats
    from .service import ServerService

__all__ = ["ServeCore", "ServeReport"]


@dataclass
class ServeReport:
    """What the serving loop observed across all worker channels.

    Who joined and left, and why anyone departed, is the membership
    directory's record (:class:`~repro.ps.membership.WorkerDirectory`);
    every channel the loop ended counts once, as ``clean_closes`` or as
    one entry of ``errors``.
    """

    #: summed final accounting from close frames
    samples_processed: int = 0
    worker_state_bytes: int = 0
    #: one description per channel that ended without a clean close
    errors: "list[str]" = field(default_factory=list)
    clean_closes: int = 0
    #: worker_id → TelemetryFrame shipped before that worker's close
    telemetry: "dict[int, TelemetryFrame]" = field(default_factory=dict)
    evictions: int = 0
    #: gradient steps answered (one per whole frame or split step whose reply went out)
    updates: int = 0
    #: actual bytes through the channels the loop ended, frame headers
    #: included: received from the workers (up) and sent to them (down)
    wire_bytes_up: int = 0
    wire_bytes_down: int = 0


class ServeCore:
    """Everything the serve loop decides, fed four inputs — :meth:`record`
    (one frame's bytes arrived on a channel), :meth:`eof` (the channel
    ended without a close frame), :meth:`broken` (a send the core asked
    for failed) and :meth:`tick` (time passed) — each returning the
    ``(key, frame)`` pairs to send and the keys of the channels to close.
    A key names a channel to the driver; the core never calls it.

    Each frame's kind picks its handler:

    * **gradient** — applied through ``service`` (to the shard its header
      names, if any) and answered on its channel; ``stats`` records the
      analytic byte accounting and ``on_update`` sees the step's loss.
    * **control** — the join/leave handshake of
      :meth:`~repro.comm.service.ServerService.control`; a join's
      ModelFrame reply goes back on the channel.
    * **telemetry** — kept on the report, no reply.
    * **close** — the worker's final accounting; ends the channel,
      cleanly or as an error if the frame carries one.

    Every other ending is that channel's crash, and all go through
    :meth:`end`: EOF, bytes that do not decode, a reply kind, a frame the
    server cannot apply (:meth:`~repro.comm.service.ServerService.check`),
    a failed send, silence longer than ``straggler_timeout_s`` at a
    :meth:`tick`, or a frame claiming another worker id than the one the
    channel is bound to — by the first join, gradient or telemetry the
    server applied on it (a worker may step without joining) — or, on a
    channel not yet bound, an id another open channel is bound to: one
    open channel per worker id, so a worker that reconnects is refused
    until its old channel ends.

    A step split into ``num_shards`` shard-addressed sub-frames is
    answered once its last sub-frame is in, its replies together and in
    arrival order (so a client sends the whole step, then reads); its
    shard-0 sub-frame is its one accounting token.

    The driver sends what one input returned — reporting a failed send
    through :meth:`broken` — before it feeds the next one, so a step
    counts (``report.updates``, ``on_update``) once the next input shows
    that its reply went out.
    """

    def __init__(
        self,
        service: "ServerService",
        stats: "CompressionStats | None" = None,
        on_update: "Callable[[float], None] | None" = None,
        straggler_timeout_s: "float | None" = None,
    ) -> None:
        self.service = service
        self.stats = stats
        self.on_update = on_update
        self.straggler_timeout_s = straggler_timeout_s
        self.report = ServeReport()
        #: open channel → when its last frame (or the channel) arrived
        self.last_seen: "dict[object, float]" = {}
        #: open channel → the worker id bound to it (one open channel per id)
        self.worker_ids: "dict[object, int]" = {}
        #: replies to a split step's sub-frames, waiting for the rest of the step
        self.held: "dict[object, list]" = {}
        #: channels ended so far, however they ended
        self.ended = 0
        #: frame kind → handler; any other kind (a reply) ends the channel
        self.handlers = {
            GradientFrame: self._gradient,
            ControlFrame: self._control,
            TelemetryFrame: self._telemetry,
            CloseFrame: self._close,
        }
        self._sends: "list[tuple[object, object]]" = []
        self._closes: "list[object]" = []
        #: the last input's replies: (what a failed send was doing, step losses)
        self._unconfirmed: "tuple[str, list[float]] | None" = None

    # -- the inputs -----------------------------------------------------
    def add(self, key, now: float) -> None:
        """Channel ``key`` opened at ``now``."""
        self.last_seen[key] = now

    def record(self, key, raw, now: float):
        """One frame's bytes arrived on channel ``key`` at ``now``."""
        self._confirm()
        self.last_seen[key] = now
        try:
            frame = decode_frame(raw)
        except ValueError as exc:
            # that peer's failure, not the server's: the rest are served on
            self.end(key, f" sent a malformed frame: {exc} (crash)")
            return self._output()
        handler = self.handlers.get(type(frame))
        claimed = frame.worker_id
        bound = self.worker_ids.get(key)
        if handler is None:
            self.end(key, f" sent an unexpected {type(frame).__name__} (crash)")
        elif bound != claimed and (bound is not None or claimed in self.worker_ids.values()):
            self.end(key, f" sent a frame as worker {claimed} (crash)")
        else:
            try:
                handler(key, frame)
            except ValueError as exc:  # nothing was applied, and ``claimed`` is not bound
                self.end(key, f" sent a frame the server cannot apply: {exc} (crash)", claimed=claimed)
        return self._output()

    def eof(self, key):
        """Channel ``key`` ended without a close frame (EOF, EPIPE, a dead read)."""
        self._confirm()
        self.end(key, " channel closed without a close frame (crash)")
        return self._output()

    def broken(self, key):
        """A send to ``key`` that the last input returned has failed."""
        doing, _ = self._unconfirmed
        self._unconfirmed = None
        self.end(key, f" channel broke {doing} (crash)")
        return self._output()

    def tick(self, now: float):
        """Time passed: evict every channel silent for longer than the budget."""
        self._confirm()
        timeout_s = self.straggler_timeout_s
        if timeout_s is not None:
            for key in [k for k, seen in self.last_seen.items() if now - seen > timeout_s]:
                self.report.evictions += 1
                self.end(key, f" evicted as straggler (silent > {timeout_s:g}s)", reason="evicted")
        return self._output()

    # -- the one ending -------------------------------------------------
    def end(
        self, key, error: "str | None" = None, reason: str = "crash", claimed: "int | None" = None
    ) -> None:
        """End one channel, whichever way it ended, and ask the driver to close it.

        ``error=None`` is a clean close.  Otherwise the report gets one
        line: the worker's label — the id bound to the channel, else the
        one its last frame ``claimed`` — then ``error``, which starts with
        its own separator (``" sent …"`` for what the server saw, ``": …"``
        for what the worker reported).  Only the bound id is deregistered
        (with ``reason``), so a peer cannot end an honest worker by
        naming it.
        """
        del self.last_seen[key]
        self.held.pop(key, None)
        who = self.worker_ids.pop(key, None)
        report = self.report
        if error is None:
            report.clean_closes += 1
        else:
            named = who if who is not None else claimed
            report.errors.append(("worker" if named is None else f"worker {named}") + error)
            if who is not None:
                self.service.membership.deregister(who, reason=reason)
        self._closes.append(key)
        self.ended += 1

    def _output(self):
        out = self._sends, self._closes
        self._sends, self._closes = [], []
        return out

    def _confirm(self) -> None:
        # the driver came back without a broken send: the last replies went out
        _, losses = self._unconfirmed or ("", ())
        self._unconfirmed = None
        for loss in losses:
            self.report.updates += 1
            if self.on_update is not None:
                self.on_update(loss)

    # -- one handler per frame kind; a ValueError rejects the frame -----
    def _gradient(self, key, frame: GradientFrame) -> None:
        reply = self.service(frame)
        self.worker_ids[key] = frame.worker_id
        if self.stats is not None:
            self.stats.record_upload(frame.nbytes(), frame.dense_nbytes())
            self.stats.record_download(reply.nbytes(), reply.dense_nbytes())
        # A split step is answered after its last sub-frame: both ends write
        # blocking, so a reply begun while the peer still writes would wedge.
        replies = self.held.pop(key, [])
        replies.append((reply, frame.loss))
        if frame.shard >= 0 and len(replies) < self.service.num_shards:
            self.held[key] = replies
            return
        self._sends += [(key, reply) for reply, _ in replies]
        # the step's shard-0 sub-frame is its one accounting token
        losses = [loss for reply, loss in replies if reply.shard <= 0]
        self._unconfirmed = ("while sending the reply", losses)

    def _control(self, key, frame: ControlFrame) -> None:
        reply = self.service.control(frame)
        self.worker_ids[key] = frame.worker_id
        if reply is not None:  # a leave is one-way
            self._sends.append((key, reply))
            self._unconfirmed = ("during join", [])

    def _telemetry(self, key, frame: TelemetryFrame) -> None:
        # diagnostic side channel: no reply, the channel stays open
        self.report.telemetry[self.worker_ids.setdefault(key, frame.worker_id)] = frame

    def _close(self, key, frame: CloseFrame) -> None:
        report = self.report
        if frame.samples_processed is not None:
            report.samples_processed += frame.samples_processed
        if frame.worker_state_bytes is not None:
            report.worker_state_bytes += frame.worker_state_bytes
        self.end(key, None if frame.error is None else f": {frame.error}", claimed=frame.worker_id)
