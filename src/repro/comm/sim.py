"""Virtual-clock transport: frames cost link time instead of wall time.

:class:`SimTransport` binds the comm layer to the simulator's network
model: one shared uplink/downlink pair (``repro.sim.network.SharedLink``),
the testbed's ``wire_scale`` factor, the serialised server and the run's
byte-accounting sink.  Frame sizes are the same analytic ``frame.nbytes()``
every other backend accounts, so a message occupies the modelled server
NIC for exactly the bytes the codec would produce.

Because the event-driven engine owns the chronology, a worker's whole
upload → server → download round-trip is one
:meth:`~SimTransport.exchange` at a given virtual ready-time, returning the
reply frame plus the :class:`SimTransfer` timing breakdown the engine
needs for its event heap.  Link and server spans go to the ambient
:func:`repro.obs.current_tracer` in the ``virtual`` clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..compression.stats import CompressionStats
from ..obs import names as obs_names
from ..obs.tracer import current_tracer

if TYPE_CHECKING:
    from ..sim.network import SharedLink
    from .frames import DiffFrame, GradientFrame, ModelFrame
    from .service import ServerService

__all__ = ["SimTransfer", "SimTransport"]


@dataclass(frozen=True)
class SimTransfer:
    """Virtual-clock timing of one worker↔server exchange: when the server
    finished applying it, and when its reply reached the worker."""

    server_end: float
    down_end: float


class SimTransport:
    """Shared server link pair, serial server and byte accounting on the
    virtual clock."""

    def __init__(
        self,
        uplink: SharedLink,
        downlink: SharedLink,
        wire_scale: float = 1.0,
        server_overhead_s: float = 0.0,
        stats: "CompressionStats | None" = None,
    ) -> None:
        self.uplink = uplink
        self.downlink = downlink
        self.wire_scale = wire_scale
        self.server_overhead_s = server_overhead_s
        self.stats = stats if stats is not None else CompressionStats()
        #: when the (serialised) server is next free to apply an update
        self.server_free = 0.0

    # ------------------------------------------------------------------
    def send_frame(
        self, ready_t: float, frame: "GradientFrame", worker: int
    ) -> "tuple[float, float]":
        """Reserve uplink time for ``frame``; returns (start, end)."""
        self.stats.record_upload(frame.nbytes(), frame.dense_nbytes())
        return self._carry(self.uplink, obs_names.COMM_SEND, ready_t, frame, worker)

    def recv_frame(
        self, ready_t: float, frame: "DiffFrame | ModelFrame", worker: int
    ) -> "tuple[float, float]":
        """Reserve downlink time for ``frame``; returns (start, end)."""
        self.stats.record_download(frame.nbytes(), frame.dense_nbytes())
        return self._carry(self.downlink, obs_names.COMM_RECV, ready_t, frame, worker)

    def _carry(self, link: SharedLink, name: str, ready_t: float, frame, worker: int):
        nbytes = frame.nbytes()
        start, end = link.reserve(ready_t, int(nbytes * self.wire_scale))
        tracer = current_tracer()
        if tracer.enabled:
            tracer.add_span(
                name,
                start,
                end,
                tid=f"worker-{worker}",
                cat="comm",
                domain="virtual",
                args={"worker": worker, "bytes": nbytes},
            )
        return start, end

    def exchange(
        self, ready_t: float, frame: "GradientFrame", service: "ServerService"
    ) -> "tuple[DiffFrame | ModelFrame, SimTransfer]":
        """One full upload → ``service`` apply → download round-trip.

        The uplink is FIFO and the engine pops ready-events in time order,
        so updates are applied in wire-arrival order — the chronology that
        makes simulated staleness match the paper's testbed.
        """
        worker = frame.worker_id
        _, up_end = self.send_frame(ready_t, frame, worker)
        server_start = max(up_end, self.server_free)
        server_end = self.server_free = server_start + self.server_overhead_s
        reply = service(frame)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.add_span(
                obs_names.SERVER_HANDLE,
                server_start,
                server_end,
                tid="server",
                cat="server",
                domain="virtual",
                args={
                    "worker": worker,
                    "staleness": reply.message.staleness,
                    "up_bytes": frame.nbytes(),
                    "down_bytes": reply.nbytes(),
                },
            )
        _, down_end = self.recv_frame(server_end, reply, worker)
        return reply, SimTransfer(server_end, down_end)
