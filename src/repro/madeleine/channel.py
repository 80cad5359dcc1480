"""Channels and connections (paper §3.1).

A :class:`Channel` "defines a closed world for communication (much like an
MPI communicator)": it is bound to one network protocol and one adapter
per process, and holds one :class:`Connection` per process pair.
Communication on one channel never interferes with another channel's
ordering; in-order delivery is guaranteed only per connection within a
channel (§4.2.1 relies on this: one MPI message never spans channels).

Each process sees a channel through its :class:`ChannelPort`, which owns
the process-local incoming queue that either the application (raw
Madeleine usage) or a ch_mad polling thread consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ChannelError
from repro.marcel.polling import PollSource
from repro.madeleine.message import IncomingMessage, MadWireMessage, OutgoingMessage, PackedBlock
from repro.networks.fabric import Delivery
from repro.networks.nic import ProtocolEndpoint
from repro.networks.params import ProtocolParams
from repro.sim.coroutines import wait
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.session import MadProcess
    from repro.sim.engine import Event


@dataclass(frozen=True)
class DeadChannelNotice:
    """Posted into every port queue of a channel the moment it dies.

    Wakes receivers blocked on the channel so they can adapt (striping
    drops the rail); consumers that keep waiting are still correct —
    in-flight traffic of a dead channel is tunnelled to its original
    ports.
    """

    channel: "Channel"


@dataclass
class PendingSend:
    """Sender-side state of one unacknowledged wire message."""

    wire: Any
    nbytes: int
    attempts: int = 0               # retransmissions performed so far
    timer: "Event | None" = field(default=None, repr=False)

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class Channel:
    """A closed communication world over one protocol."""

    _counter = 0

    def __init__(self, name: str, protocol: str):
        Channel._counter += 1
        self.id = Channel._counter
        self.name = name
        self.protocol = protocol
        self.ports: dict[int, "ChannelPort"] = {}
        #: Set (once, globally — the Channel object is shared by every
        #: process) by the ChannelHealthMonitor when the channel fails.
        self.dead = False
        self._death_listeners: list = []

    def add_death_listener(self, callback) -> None:
        """Register ``callback(channel)`` to run when the channel dies."""
        self._death_listeners.append(callback)

    def port(self, rank: int) -> "ChannelPort":
        try:
            return self.ports[rank]
        except KeyError:
            raise ChannelError(
                f"channel {self.name!r} has no port for rank {rank}"
            ) from None

    def add_port(self, process: "MadProcess") -> "ChannelPort":
        if process.rank in self.ports:
            raise ChannelError(
                f"rank {process.rank} already has a port on channel {self.name!r}"
            )
        port = ChannelPort(self, process)
        self.ports[process.rank] = port
        return port

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Channel {self.name!r} protocol={self.protocol} ports={sorted(self.ports)}>"


class Connection:
    """A reliable point-to-point link within a channel (one per peer)."""

    def __init__(self, port: "ChannelPort", remote_rank: int):
        self.port = port
        self.remote_rank = remote_rank
        self._send_seq = 0
        #: Unacknowledged in-flight messages, keyed by sequence number
        #: (reliable transport only; stays empty on perfect networks).
        self.unacked: dict[int, PendingSend] = {}
        #: Diagnostics.
        self.messages_sent = 0

    def _transmit(self, blocks: tuple[PackedBlock, ...]) -> Generator:
        """Stamp one message and return the generator that sends it (the
        transport's or the NIC's), for the caller to ``yield from``."""
        process = self.port.process
        checker = process.engine.checker
        if checker.enabled:
            # §4.2.3: the thread performing a connection send must never
            # be a registered polling thread.
            checker.on_transmit(self, process.runtime.cpu.current)
        port = self.port
        channel = port.channel
        wire = MadWireMessage(channel.id, port.rank, self.remote_rank,
                              self._send_seq, blocks)
        self._send_seq += 1
        self.messages_sent += 1
        ins = process.engine.instruments
        if ins.enabled:
            ins.count("mad.messages", 1, channel=channel.name,
                      protocol=channel.protocol, rank=port.rank)
            ins.count("mad.bytes", wire.wire_bytes, channel=channel.name,
                      protocol=channel.protocol, rank=port.rank)
            for block in blocks:
                ins.count("mad.blocks", 1, channel=channel.name,
                          protocol=channel.protocol, rank=port.rank,
                          mode=block.receive_mode.name)
        transport = port.transport
        if transport is not None:
            return transport.reliable_send(self, wire)
        remote_port = channel.port(self.remote_rank)
        return port.endpoint.send_message(remote_port.endpoint,
                                          wire.wire_bytes, wire)


class ChannelPort:
    """One process's view of a channel."""

    def __init__(self, channel: Channel, process: "MadProcess"):
        self.channel = channel
        self.process = process
        self.rank = process.rank
        self.endpoint: ProtocolEndpoint = process.endpoint(channel.protocol)
        self.memory = process.memory
        #: Where this port's pack/unpack/receive costs accrue (CPU.owe).
        self.cpu = process.runtime.cpu
        self.params: ProtocolParams = self.endpoint.params
        self.incoming: Mailbox = Mailbox(
            name=f"chan[{channel.name}]@{process.rank}.incoming"
        )
        self._connections: dict[int, Connection] = {}
        #: Reliable-transport state (None on perfect networks): the
        #: process's ReliableTransport, next expected sequence per source,
        #: and the out-of-order hold buffer per source.
        self.transport = process.transport
        self._recv_next: dict[int, int] = {}
        self._recv_buffer: dict[int, dict] = {}
        process._register_port(self)

    # -- sending ------------------------------------------------------------

    def connection(self, remote_rank: int) -> Connection:
        """The (lazily created) connection to ``remote_rank``."""
        conn = self._connections.get(remote_rank)
        if conn is not None:
            return conn  # validated when it was created
        if remote_rank == self.rank:
            raise ChannelError(
                "Madeleine connections are inter-process; intra-process "
                "communication belongs to the ch_self device"
            )
        if remote_rank not in self.channel.ports:
            raise ChannelError(
                f"rank {remote_rank} is not a member of channel "
                f"{self.channel.name!r}"
            )
        conn = self._connections[remote_rank] = Connection(self, remote_rank)
        return conn

    def begin_packing(self, remote_rank: int) -> OutgoingMessage:
        """Start building a message for ``remote_rank`` (mad_begin_packing)."""
        return OutgoingMessage(self.connection(remote_rank))

    # -- receiving -----------------------------------------------------------

    def begin_unpacking(self) -> Generator:
        """Block until *some* message arrives on this channel; open it.

        Evaluates to an :class:`IncomingMessage` (mad_begin_unpacking —
        note the paper's API does not select a source; the message's
        connection is discovered from the result).
        """
        delivery = yield wait(self.incoming)
        while isinstance(delivery, DeadChannelNotice):
            # The channel died, but in-flight traffic is tunnelled to this
            # very port — keep waiting.  If nothing can ever arrive the
            # failed retransmissions abort the run (FailoverExhaustedError)
            # before this wait could hang silently.
            delivery = yield wait(self.incoming)
        # Raw-Madeleine usage: the application thread itself performs the
        # detection (a select() on TCP, a flag check on SCI/BIP), so the
        # per-poll cost accrues here.  Under ch_mad the polling thread
        # accrues it instead (via its PollSource) and calls open_delivery.
        if self.params.poll_cost:
            self.cpu.owe(self.params.poll_cost)
        return self.open_delivery(delivery)

    def open_delivery(self, delivery: Delivery) -> IncomingMessage:
        """Accrue receive costs for a delivery and wrap it for unpacking.

        Used directly by polling-thread handlers which already hold the
        delivery (they consumed the mailbox via their poll source).  The
        calling thread pays in ``end_unpacking``.
        """
        wire = delivery.payload
        if not isinstance(wire, MadWireMessage):  # pragma: no cover - defensive
            raise ChannelError(f"foreign payload on channel {self.channel.name!r}")
        cost = self.endpoint.recv_cost(delivery.nbytes)
        if cost:
            self.cpu.owe(cost)
        return IncomingMessage(self, wire, delivery)

    def poll_source(self) -> PollSource:
        """Marcel poll source for this port (per-protocol mode/period)."""
        p = self.params
        return PollSource(
            name=f"{self.channel.name}@{self.rank}",
            mode=p.poll_mode,
            mailbox=self.incoming,
            poll_cost=p.poll_cost,
            period=p.poll_period,
            idle_period=p.poll_idle_period,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChannelPort {self.channel.name!r} rank={self.rank}>"
