"""Virtual-clock channels: frames cost link time instead of wall time.

:class:`SimTransport` binds the comm layer to the simulator's network
model: one shared uplink/downlink pair (``repro.sim.network.SharedLink``),
the testbed's ``wire_scale`` factor, and the run's byte-accounting sink.
Frame sizes are the same analytic ``frame.nbytes()`` every other backend
accounts, so a message occupies the modelled server NIC for exactly the
bytes the codec would produce.

:class:`SimChannel` is one worker's channel on that transport.  Because
the event-driven engine owns the chronology, the channel exposes a single
:meth:`~SimChannel.exchange` that performs the whole
upload → server → download round-trip at a given virtual ready-time and
returns the reply frame plus the :class:`SimTransfer` timing breakdown the
engine needs for its event heap.  Link and server spans go to the ambient
:func:`repro.obs.current_tracer` in the ``virtual`` clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..compression.stats import CompressionStats
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from .frames import DiffFrame, GradientFrame, ModelFrame
from .service import ServerService

if TYPE_CHECKING:
    from ..sim.network import SharedLink

__all__ = ["SimTransfer", "SimTransport", "SimChannel"]


@dataclass(frozen=True)
class SimTransfer:
    """Virtual-clock timing of one worker↔server exchange."""

    up_start: float
    up_end: float
    server_start: float
    server_end: float
    down_end: float
    up_bytes: int
    down_bytes: int


class SimTransport:
    """Shared server link pair + byte accounting on the virtual clock."""

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
        self, ready_t: float, frame: GradientFrame, worker: int
    ) -> "tuple[float, float]":
        """Reserve uplink time for ``frame``; returns (start, end)."""
        nbytes = frame.nbytes()
        start, end = self.uplink.reserve(ready_t, int(nbytes * self.wire_scale))
        self.stats.record_upload(nbytes, frame.dense_nbytes())
        tracer = current_tracer()
        if tracer.enabled:
            tracer.add_span(
                obs_names.COMM_SEND,
                start,
                end,
                tid=f"worker-{worker}",
                cat="comm",
                domain="virtual",
                args={"worker": worker, "bytes": nbytes},
            )
        return start, end

    def recv_frame(
        self, ready_t: float, frame: "DiffFrame | ModelFrame", worker: int
    ) -> "tuple[float, float]":
        """Reserve downlink time for ``frame``; returns (start, end)."""
        nbytes = frame.nbytes()
        start, end = self.downlink.reserve(ready_t, int(nbytes * self.wire_scale))
        self.stats.record_download(nbytes, frame.dense_nbytes())
        tracer = current_tracer()
        if tracer.enabled:
            tracer.add_span(
                obs_names.COMM_RECV,
                start,
                end,
                tid=f"worker-{worker}",
                cat="comm",
                domain="virtual",
                args={"worker": worker, "bytes": nbytes},
            )
        return start, end


class SimChannel:
    """Worker ``k``'s channel through the shared virtual server link."""

    def __init__(self, transport: SimTransport, service: ServerService, worker_id: int) -> None:
        self.transport = transport
        self.service = service
        self.worker_id = worker_id

    def exchange(
        self, ready_t: float, frame: GradientFrame
    ) -> "tuple[DiffFrame | ModelFrame, SimTransfer]":
        """One full upload → server apply → download round-trip.

        The uplink is FIFO and the engine pops ready-events in time order,
        so updates are applied in wire-arrival order — the chronology that
        makes simulated staleness match the paper's testbed.
        """
        transport = self.transport
        up_start, up_end = transport.send_frame(ready_t, frame, worker=self.worker_id)
        server_start = max(up_end, transport.server_free)
        server_end = server_start + transport.server_overhead_s
        transport.server_free = server_end
        reply = self.service(frame)
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
                    "worker": self.worker_id,
                    "staleness": reply.message.staleness,
                    "up_bytes": frame.nbytes(),
                    "down_bytes": reply.nbytes(),
                },
            )
        _, down_end = transport.recv_frame(server_end, reply, worker=self.worker_id)
        return reply, SimTransfer(
            up_start=up_start,
            up_end=up_end,
            server_start=server_start,
            server_end=server_end,
            down_end=down_end,
            up_bytes=frame.nbytes(),
            down_bytes=reply.nbytes(),
        )
