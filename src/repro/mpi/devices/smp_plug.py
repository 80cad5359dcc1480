"""smp_plug — the intra-node shared-memory device (paper §4.1).

Part of the SMP implementation of MPI-BIP ([9], [16]) in the original;
here a faithful cost model: processes on one node exchange packets
through shared-memory FIFOs.

- Eager: sender copies the payload into the FIFO (one memcpy), the
  receiver's smp polling thread copies it out (the progress engine
  charges that side).
- Rendezvous (large messages): request/ack through the FIFO, then a
  single direct copy into the user buffer once its address is known.

Each process runs one cheap event-mode polling thread for its FIFO.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, NamedTuple

from repro.errors import ConfigurationError, MPIError
from repro.marcel.polling import PollMode, PollSource, PollingThread
from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.adi.rhandle import SendHandle
from repro.sim.coroutines import charge
from repro.sim.sync import Mailbox
from repro.units import us

#: Software cost to enqueue/dequeue one FIFO packet.
SMP_OVERHEAD = us(0.6)
#: Store-buffer/coherence delay before the peer can observe a packet.
SMP_LATENCY = us(0.3)
#: Per-poll cost of the FIFO flag check.
SMP_POLL_COST = us(0.2)
#: Eager/rendezvous switch for shared memory.
SMP_EAGER_THRESHOLD = 16 * 1024


class SmpKind(enum.Enum):
    EAGER = "eager"
    RNDV_REQUEST = "rndv-request"
    RNDV_ACK = "rndv-ack"
    RNDV_DATA = "rndv-data"


class SmpPacket(NamedTuple):
    """One FIFO packet (immutable; a ``NamedTuple``, built per packet)."""

    kind: SmpKind
    source_world: int
    envelope: Envelope | None = None
    data: Any = None
    send_id: int = 0
    sync_id: int = 0


class SmpPlugDevice(Device):
    """Shared-memory device of one process on a multi-process node."""

    name = "smp_plug"

    def __init__(self, progress: ProgressEngine, world_rank: int):
        self.progress = progress
        self.world_rank = world_rank
        self.eager_threshold = SMP_EAGER_THRESHOLD
        self.fifo = Mailbox(name=f"smp[{world_rank}]")
        self._peers: dict[int, "SmpPlugDevice"] = {}
        self._poll_thread: PollingThread | None = None

    # -- wiring (done by the cluster session) ---------------------------------

    def connect(self, peers: dict[int, "SmpPlugDevice"]) -> None:
        """Register the other processes of this node (world rank -> device)."""
        self._peers = dict(peers)
        self._peers.pop(self.world_rank, None)

    def start(self) -> None:
        """Spawn the FIFO polling thread."""
        source = PollSource(name=f"smp@{self.world_rank}", mode=PollMode.EVENT,
                            mailbox=self.fifo, poll_cost=SMP_POLL_COST)
        self._poll_thread = PollingThread(self.progress.runtime, source,
                                          self._handle)

    def shutdown(self) -> None:
        if self._poll_thread is not None:
            self._poll_thread.stop()
            self._poll_thread = None

    def _peer(self, dest_world: int) -> "SmpPlugDevice":
        try:
            return self._peers[dest_world]
        except KeyError:
            raise ConfigurationError(
                f"smp_plug of rank {self.world_rank} has no peer "
                f"{dest_world} (not on this node?)"
            ) from None

    def _post_to(self, dest_world: int, packet: SmpPacket) -> None:
        peer = self._peer(dest_world)
        engine = self.progress.runtime.engine
        engine.schedule(SMP_LATENCY, peer.fifo.post, packet)

    # -- send side ---------------------------------------------------------------

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        # enqueue cost + copy into the shared FIFO
        yield charge(SMP_OVERHEAD + self.progress.memory.copy_cost(envelope.size))
        self._post_to(dest_world, SmpPacket(SmpKind.EAGER, self.world_rank,
                                            envelope, data))

    def rndv_request(self, dest_world: int, shandle: SendHandle) -> Generator:
        yield charge(SMP_OVERHEAD)
        self._post_to(dest_world, SmpPacket(SmpKind.RNDV_REQUEST,
                                            self.world_rank,
                                            shandle.envelope,
                                            send_id=shandle.send_id))

    def rndv_data(self, dest_world: int, shandle: SendHandle,
                  sync_id: int) -> Generator:
        # Single direct copy into the receiver's user buffer.
        yield charge(SMP_OVERHEAD
                     + self.progress.memory.copy_cost(shandle.envelope.size))
        self._post_to(dest_world, SmpPacket(SmpKind.RNDV_DATA, self.world_rank,
                                            shandle.envelope,
                                            data=shandle.data,
                                            sync_id=sync_id))

    def send_rndv_ack(self, token: RndvToken, sync_id: int) -> Generator:
        yield charge(SMP_OVERHEAD)
        self._post_to(token.requester_world,
                      SmpPacket(SmpKind.RNDV_ACK, self.world_rank,
                                send_id=token.send_id, sync_id=sync_id))

    # -- receive side (polling thread handler) -------------------------------------

    def _handle(self, packet: SmpPacket) -> Generator:
        yield charge(SMP_OVERHEAD)
        if packet.kind is SmpKind.EAGER:
            yield from self.progress.deliver_eager(packet.envelope, packet.data)
        elif packet.kind is SmpKind.RNDV_REQUEST:
            token = RndvToken(self, packet.source_world, packet.send_id)
            yield from self.progress.deliver_rndv_request(packet.envelope,
                                                          token)
        elif packet.kind is SmpKind.RNDV_ACK:
            self.progress.deliver_rndv_ack(packet.send_id, packet.sync_id)
        elif packet.kind is SmpKind.RNDV_DATA:
            yield from self.progress.deliver_rndv_data(packet.sync_id,
                                                       packet.envelope,
                                                       packet.data)
        else:  # pragma: no cover - defensive
            raise MPIError(f"unknown smp packet kind {packet.kind}")
