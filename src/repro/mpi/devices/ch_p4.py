"""ch_p4 — the classic MPICH TCP device (the Figure 6 baseline).

Historically MPICH's default workstation device, built on the P4
portability library.  Implemented here straight over the TCP endpoint
model (no Madeleine underneath — it predates it), with P4's measured
behaviours:

- higher fixed software overhead per message than ch_mad (P4 queue
  locking and buffer management), which is why ch_mad wins below
  ~256 bytes (Figure 6a) and why the gap becomes relatively "limited"
  as the per-byte wire time dominates for longer messages;
- a posted eager receive readv()s from the socket into the user buffer,
  so ch_p4's per-byte eager cost is marginally below ch_mad's
  (bandwidths "similar" below 64 KB, Figure 6b, with the fixed-overhead
  gap shrinking as size grows);
- beyond its 64 KB threshold P4 switches to a rendezvous that still
  stalls on socket flow control (modelled as a receiver per-byte stall),
  producing the famous ~10 MB/s ceiling of Figure 6b, while ch_mad's
  zero-copy rendezvous climbs past 11 MB/s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ConfigurationError, MPIError
from repro.marcel.polling import PollingThread
from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.adi.rhandle import SendHandle
from repro.networks.fabric import Delivery, NetworkFabric
from repro.networks.tcp import TcpEndpoint
from repro.sim.coroutines import charge
from repro.units import us

#: P4 wire header per packet (envelope, lengths, checksums).
P4_HEADER_BYTES = 40
#: Fixed P4 software costs per message (queue locks, buffer management —
#: the P4 library was built for portability, not latency).
P4_SEND_OVERHEAD = us(35)
P4_RECV_OVERHEAD = us(42)
#: P4's eager/rendezvous switch point.
P4_EAGER_THRESHOLD = 64 * 1024
#: Receiver-side stall per byte on the rendezvous path (socket flow
#: control with P4's fixed-size socket buffers): the 10 MB/s ceiling.
P4_RNDV_STALL_NS_PER_BYTE = 10.0


class P4Kind(enum.Enum):
    EAGER = "eager"
    RNDV_REQUEST = "rndv-request"
    RNDV_ACK = "rndv-ack"
    RNDV_DATA = "rndv-data"


@dataclass(frozen=True)
class P4Packet:
    kind: P4Kind
    source_world: int
    envelope: Envelope | None = None
    data: Any = None
    send_id: int = 0
    sync_id: int = 0


class ChP4Device(Device):
    """The TCP-only baseline device."""

    name = "ch_p4"

    def __init__(self, progress: ProgressEngine, world_rank: int,
                 tcp_fabric: NetworkFabric):
        self.progress = progress
        self.world_rank = world_rank
        self.eager_threshold = P4_EAGER_THRESHOLD
        # ch_p4 owns its own adapter on the TCP fabric (its own socket set),
        # separate from any Madeleine channel.
        self.endpoint = TcpEndpoint(progress.runtime.engine, tcp_fabric,
                                    owner=self)
        self._peers: dict[int, "ChP4Device"] = {}
        self._poll_thread: PollingThread | None = None

    # -- wiring -----------------------------------------------------------------

    def connect(self, peers: dict[int, "ChP4Device"],
                shared: bool = False) -> None:
        """Register the other processes' ch_p4 devices (full mesh).

        With ``shared=True`` the mapping is kept by reference — the
        cluster session builds *one* world-wide dict and hands it to all
        ranks (a private copy per device was O(ranks²) memory).  The
        shared map may include this device's own entry; ``_peer`` never
        looks up ``self.world_rank`` because device selection routes
        self-sends to ch_self.
        """
        if shared:
            self._peers = peers
            return
        self._peers = dict(peers)
        self._peers.pop(self.world_rank, None)

    def start(self) -> None:
        """Spawn the select() polling thread (periodic, TCP-style)."""
        self._poll_thread = PollingThread(
            self.progress.runtime,
            self.endpoint.poll_source(name=f"p4@{self.world_rank}"),
            self._handle,
        )

    def shutdown(self) -> None:
        if self._poll_thread is not None:
            self._poll_thread.stop()
            self._poll_thread = None

    def _peer(self, dest_world: int) -> "ChP4Device":
        try:
            if dest_world == self.world_rank:
                raise KeyError(dest_world)  # shared map includes self
            return self._peers[dest_world]
        except KeyError:
            raise ConfigurationError(
                f"ch_p4 of rank {self.world_rank} has no connection to "
                f"rank {dest_world}"
            ) from None

    def _transmit(self, dest_world: int, packet: P4Packet,
                  payload_bytes: int) -> Generator:
        peer = self._peer(dest_world)
        yield from self.endpoint.send_message(
            peer.endpoint, payload_bytes + P4_HEADER_BYTES, packet
        )

    # -- send side ------------------------------------------------------------------

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        yield charge(P4_SEND_OVERHEAD)
        packet = P4Packet(P4Kind.EAGER, self.world_rank, envelope, data)
        yield from self._transmit(dest_world, packet, envelope.size)

    def rndv_request(self, dest_world: int, shandle: SendHandle) -> Generator:
        yield charge(P4_SEND_OVERHEAD)
        yield from self._transmit(
            dest_world,
            P4Packet(P4Kind.RNDV_REQUEST, self.world_rank, shandle.envelope,
                     send_id=shandle.send_id),
            0,
        )

    def rndv_data(self, dest_world: int, shandle: SendHandle,
                  sync_id: int) -> Generator:
        yield charge(P4_SEND_OVERHEAD)
        yield from self._transmit(
            dest_world,
            P4Packet(P4Kind.RNDV_DATA, self.world_rank, shandle.envelope,
                     data=shandle.data, sync_id=sync_id),
            shandle.envelope.size,
        )

    def send_rndv_ack(self, token: RndvToken, sync_id: int) -> Generator:
        yield charge(P4_SEND_OVERHEAD)
        yield from self._transmit(
            token.requester_world,
            P4Packet(P4Kind.RNDV_ACK, self.world_rank,
                     send_id=token.send_id, sync_id=sync_id),
            0,
        )

    # -- receive side (polling thread handler) ------------------------------------------

    def _handle(self, delivery: Delivery) -> Generator:
        packet: P4Packet = delivery.payload
        yield charge(P4_RECV_OVERHEAD)
        if packet.kind is P4Kind.EAGER:
            # Posted receives readv() straight into the user buffer;
            # unexpected arrivals are buffered (one copy).
            yield from self.progress.deliver_eager(
                packet.envelope, packet.data,
                copy_on_match=False, copy_on_buffer=True,
            )
        elif packet.kind is P4Kind.RNDV_REQUEST:
            token = RndvToken(self, packet.source_world, packet.send_id)
            yield from self.progress.deliver_rndv_request(packet.envelope,
                                                          token)
        elif packet.kind is P4Kind.RNDV_ACK:
            self.progress.deliver_rndv_ack(packet.send_id, packet.sync_id)
        elif packet.kind is P4Kind.RNDV_DATA:
            # Socket flow-control stalls: the ~10 MB/s ceiling.
            yield charge(round(packet.envelope.size * P4_RNDV_STALL_NS_PER_BYTE))
            yield from self.progress.deliver_rndv_data(packet.sync_id,
                                                       packet.envelope,
                                                       packet.data)
        else:  # pragma: no cover - defensive
            raise MPIError(f"unknown P4 packet kind {packet.kind}")
