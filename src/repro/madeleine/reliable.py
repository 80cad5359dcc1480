"""Reliable transport over Madeleine connections + channel failover.

The paper's networks are assumed reliable; once the fault injector
(:mod:`repro.faults`) can lose, poison and delay messages, the Madeleine
layer needs the classic reliability machinery:

- **Sequencing** — every :class:`~repro.madeleine.channel.Connection`
  already stamps a per-connection sequence number on its wire messages;
  the receiver acks each sequence, drops duplicates, and holds
  out-of-order arrivals until the gap fills, preserving the paper's
  per-connection in-order guarantee (§3.1) under loss.
- **Retransmission** — each in-flight message keeps a timer (engine
  event) with a per-protocol timeout and exponential backoff; a
  "simulated checksum" marks corrupted deliveries, which are treated
  exactly as losses (no ack, no delivery).  A capped number of retries
  escalates to a :class:`~repro.errors.TransportError`.
- **Failover** — the :class:`ChannelHealthMonitor` marks a channel dead
  after transport failures and *tunnels* all of its traffic (queued
  retransmissions, acks, and any still-running transmissions) through a
  surviving channel's endpoints, keeping the original channel id on the
  wire so receivers — pollers and striped reassembly alike — keep
  consuming from the ports they already watch.  When no surviving
  channel connects the two ranks, :class:`FailoverExhaustedError` aborts
  the run instead of hanging it.

Thread discipline: acks and retransmissions are *sends*, and the paper's
rule is that "a polling thread must not proceed by itself to any send
operation".  All transport sends therefore run on temporary Marcel
threads (``transport-ack`` / ``transport-resend``), exactly like the
rendezvous acknowledgements of §4.2.3; timer *decisions* happen in plain
engine callbacks, which never charge CPU.

Sequence/ack bookkeeping itself is charged to nobody: it models NIC
firmware work, not host CPU time.  The ack *transmissions* pay the full
protocol send path on the receiving host, which is where the real cost
of software reliability lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import FailoverExhaustedError, TransportError
from repro.madeleine.channel import DeadChannelNotice, PendingSend
from repro.sim.coroutines import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.channel import Channel, ChannelPort, Connection
    from repro.madeleine.session import MadProcess
    from repro.networks.fabric import Delivery

#: Wire size of one transport acknowledgement (header-only message).
ACK_WIRE_BYTES = 16


@dataclass(frozen=True)
class MadAck:
    """Transport-level acknowledgement for one received sequence number.

    Routed by ``channel_id`` like any wire message, but consumed by the
    *sender-side* connection state instead of the channel's incoming
    queue.
    """

    channel_id: int
    source_rank: int    # the acknowledging process
    dest_rank: int      # the original sender
    ack_seq: int


class ReliableTransport:
    """Per-process reliability engine (one per :class:`MadProcess`)."""

    def __init__(self, process: "MadProcess", monitor: "ChannelHealthMonitor"):
        self.process = process
        self.engine = process.engine
        self.monitor = monitor

    # -- routing -------------------------------------------------------------

    def surviving_port(self, remote_rank: int,
                       exclude: "Channel") -> "ChannelPort | None":
        """A live port of this process sharing a channel with ``remote_rank``.

        Deterministic choice: the live channel with the lowest id (the
        oldest-opened one) wins, so both ends of a failed channel tunnel
        through the same surviving network.
        """
        candidates = [
            p for p in self.process._ports_by_channel.values()
            if p.channel is not exclude and not p.channel.dead
            and remote_rank in p.channel.ports
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.channel.id)

    def route(self, port: "ChannelPort",
              remote_rank: int) -> tuple["ChannelPort", Any]:
        """Resolve ``(send_port, destination endpoint)`` for a transmission.

        A live channel routes natively; a dead channel tunnels through a
        surviving one (both adapters live on the survivor's fabric while
        the payload keeps the dead channel's id).  Raises
        :class:`FailoverExhaustedError` when no path remains.
        """
        channel = port.channel
        if not channel.dead:
            return port, channel.port(remote_rank).endpoint
        tunnel = self.surviving_port(remote_rank, exclude=channel)
        if tunnel is None:
            raise FailoverExhaustedError(
                f"channel {channel.name!r} is dead and rank {port.rank} "
                f"shares no surviving channel with rank {remote_rank}",
                channel=channel.name, remote_rank=remote_rank,
            )
        return tunnel, tunnel.channel.port(remote_rank).endpoint

    def _timeout_of(self, conn: "Connection", pending: PendingSend) -> int:
        """Retransmit timeout for ``pending``, following the live route."""
        port = conn.port
        params = port.params
        if port.channel.dead:
            tunnel = self.surviving_port(conn.remote_rank,
                                         exclude=port.channel)
            if tunnel is not None:
                params = tunnel.params
        return params.retransmit_timeout(pending.nbytes, pending.attempts)

    # -- sender side ---------------------------------------------------------

    def reliable_send(self, conn: "Connection", wire: Any) -> Generator:
        """Register ``wire`` for retransmission and transmit it.

        Generator run by the sending thread (charges the protocol send
        path, tunnelled when the channel is already dead).
        """
        # Pay what the thread accrued while packing *before* registering:
        # timer callbacks read ``unacked`` (failover resends it) and
        # ``route`` reads channel health, so both must happen at the
        # instant they always did, not a pack's worth of time earlier.
        yield charge(0)
        pending = PendingSend(wire=wire, nbytes=wire.wire_bytes)
        conn.unacked[wire.sequence] = pending
        try:
            send_port, dst_endpoint = self.route(conn.port, conn.remote_rank)
        except FailoverExhaustedError:
            # No path at all: ULFM calls that rank dead.  Tell the
            # detector (it drains this connection) and let the error
            # surface to the sender, who converts it to an MPI failure.
            self._notify_unreachable(conn.remote_rank)
            raise
        if send_port is not conn.port:
            self._count_reroute(conn, 1)
        yield from send_port.endpoint.send_message(dst_endpoint,
                                                   wire.wire_bytes, wire)
        # Arm only once the NIC has accepted the message: the sender-side
        # injection cost (SCI PIO writes dwarf the ack RTT for large
        # payloads) must not eat into the retransmission timeout.
        self._arm_timer(conn, pending)

    def _arm_timer(self, conn: "Connection", pending: PendingSend) -> None:
        pending.cancel_timer()
        timeout = self._timeout_of(conn, pending)
        pending.timer = self.engine.schedule(
            timeout, self._on_timeout, conn, pending.wire.sequence
        )

    def _on_timeout(self, conn: "Connection", seq: int) -> None:
        if self.process.dead:
            return
        pending = conn.unacked.get(seq)
        if pending is None or (pending.timer is not None
                               and pending.timer.cancelled):
            return  # acked in the meantime
        channel = conn.port.channel
        if pending.attempts >= conn.port.params.max_retries:
            error = TransportError(
                f"connection {channel.name!r} rank {conn.port.rank} -> "
                f"{conn.remote_rank}: seq {seq} unacknowledged after "
                f"{pending.attempts} retransmissions",
                channel=channel.name, remote_rank=conn.remote_rank,
            )
            self.monitor.connection_failed(conn, error)
            return
        pending.attempts += 1
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("transport.retransmits", 1, channel=channel.name,
                      protocol=channel.protocol, rank=conn.port.rank)
            ins.emit("transport.retransmit", channel=channel.name,
                     rank=conn.port.rank, dst=conn.remote_rank, seq=seq,
                     attempt=pending.attempts)
        self.spawn_resend(conn, [pending])

    def spawn_resend(self, conn: "Connection",
                     pendings: list[PendingSend]) -> None:
        """Retransmit ``pendings`` (in order) from a temporary send thread."""

        def body() -> Generator:
            for pending in pendings:
                if self.process.dead:
                    return
                if conn.unacked.get(pending.wire.sequence) is not pending:
                    continue  # acked while this thread waited for the CPU
                try:
                    send_port, dst_endpoint = self.route(conn.port,
                                                         conn.remote_rank)
                except FailoverExhaustedError:
                    # With the rank-failure model the detector turns this
                    # into a peer-death declaration; without it the error
                    # must surface (a totally dead fabric aborts the run).
                    if not self._notify_unreachable(conn.remote_rank):
                        raise
                    return
                if send_port is not conn.port:
                    self._count_reroute(conn, 1)
                yield from send_port.endpoint.send_message(
                    dst_endpoint, pending.wire.wire_bytes, pending.wire
                )
                # Re-armed here (after the send) for the same reason
                # reliable_send arms late; acked-meanwhile timers are
                # harmless (the timeout finds no pending and returns).
                self._arm_timer(conn, pending)

        self.process.runtime.spawn_temporary(body(), name="transport-resend")

    def handle_ack(self, port: "ChannelPort", ack: MadAck) -> None:
        conn = port._connections.get(ack.source_rank)
        if conn is None:
            return
        checker = self.engine.checker
        if checker.enabled:
            checker.on_ack(conn, ack.ack_seq)
        pending = conn.unacked.pop(ack.ack_seq, None)
        if pending is None:
            return  # ack of a retransmitted message that already completed
        pending.cancel_timer()
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("transport.acks", 1, channel=port.channel.name,
                      protocol=port.channel.protocol, rank=port.rank)

    def _notify_unreachable(self, remote_rank: int) -> bool:
        """A rank no surviving channel reaches is dead by definition.

        Returns True when a failure detector handled the verdict (the
        caller may swallow the routing error), False when no rank-failure
        model is armed and the error must propagate as before.
        """
        detector = self.monitor.detector if self.monitor is not None else None
        if detector is None:
            return False
        detector.on_unreachable(remote_rank)
        return True

    def _count_reroute(self, conn: "Connection", amount: int) -> None:
        ins = self.engine.instruments
        if ins.enabled:
            channel = conn.port.channel
            ins.count("transport.rerouted", amount, channel=channel.name,
                      protocol=channel.protocol, rank=conn.port.rank)

    # -- receiver side -------------------------------------------------------

    def receive(self, port: "ChannelPort", delivery: "Delivery") -> None:
        """Admit one delivery: an ack is consumed, anything else is
        checksummed, acked, deduplicated and reordered."""
        if self.process.dead:
            return
        wire = delivery.payload
        if isinstance(wire, MadAck):
            if not delivery.corrupted:  # a corrupted ack is a lost ack
                self.handle_ack(port, wire)
            return
        src = wire.source_rank
        ins = self.engine.instruments
        if delivery.corrupted:
            # The simulated checksum catches the poison; handled as loss.
            if ins.enabled:
                ins.count("transport.corrupt_drops", 1,
                          channel=port.channel.name, rank=port.rank)
                ins.emit("transport.corrupt_drop", channel=port.channel.name,
                         rank=port.rank, src=src, seq=wire.sequence)
            return
        seq = wire.sequence
        self._send_ack(port, src, seq)
        next_seq = port._recv_next.get(src, 0)
        if seq < next_seq:
            if ins.enabled:
                ins.count("transport.duplicates", 1,
                          channel=port.channel.name, rank=port.rank)
            return
        buffered = port._recv_buffer.setdefault(src, {})
        if seq > next_seq:
            if seq in buffered and ins.enabled:
                ins.count("transport.duplicates", 1,
                          channel=port.channel.name, rank=port.rank)
            buffered[seq] = delivery
            return
        checker = self.engine.checker
        if checker.enabled:
            # Past the dedup/reorder machinery, posts must be the exact
            # per-(channel, peer) sequence 0, 1, 2, ...
            checker.on_wire_deliver(port, src, seq)
        port.incoming.post(delivery)
        next_seq += 1
        while next_seq in buffered:
            if checker.enabled:
                checker.on_wire_deliver(port, src, next_seq)
            port.incoming.post(buffered.pop(next_seq))
            next_seq += 1
        port._recv_next[src] = next_seq

    def _send_ack(self, port: "ChannelPort", src_rank: int, seq: int) -> None:
        ack = MadAck(channel_id=port.channel.id, source_rank=port.rank,
                     dest_rank=src_rank, ack_seq=seq)

        def body() -> Generator:
            if self.process.dead:
                return
            try:
                send_port, dst_endpoint = self.route(port, src_rank)
            except FailoverExhaustedError:
                if not self._notify_unreachable(src_rank):
                    raise
                return
            yield from send_port.endpoint.send_message(dst_endpoint,
                                                       ACK_WIRE_BYTES, ack)

        self.process.runtime.spawn_temporary(body(), name="transport-ack")

    # -- teardown ------------------------------------------------------------

    def cancel_pending(self) -> int:
        """Cancel every retransmit timer (finalize teardown).

        By finalize time every *data* message has been consumed (the
        receiving rank could not have completed otherwise); only trailing
        ack races remain, and their timers must not fire into a
        torn-down world.  Returns the number of cancelled messages.
        """
        cancelled = 0
        for port in self.process._ports_by_channel.values():
            for conn in port._connections.values():
                for pending in conn.unacked.values():
                    pending.cancel_timer()
                    cancelled += 1
                conn.unacked.clear()
        return cancelled


class ChannelHealthMonitor:
    """Session-wide channel health: failure counting, death, failover.

    One monitor is shared by every process of a session: channel death is
    a *global* condition (the fabric is gone for everyone), matching the
    simulator's shared :class:`Channel` objects.
    """

    def __init__(self, engine, death_threshold: int = 1):
        self.engine = engine
        #: Connection failures on one channel before it is declared dead.
        self.death_threshold = death_threshold
        self._failures: dict[int, int] = {}
        #: Session :class:`~repro.faults.death.FailureDetector` (None
        #: when the fault plan kills no ranks).  When present it
        #: adjudicates every connection failure *before* the channel
        #: machinery: "peer dead, escalate to MPI" and "channel dead,
        #: fail over" are different diagnoses of the same timeout.
        self.detector = None

    def connection_failed(self, conn: "Connection",
                          error: TransportError) -> None:
        """A connection exhausted its retries; maybe kill the channel."""
        channel = conn.port.channel
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("transport.failures", 1, channel=channel.name,
                      protocol=channel.protocol, rank=conn.port.rank)
            ins.emit("transport.failure", channel=channel.name,
                     rank=conn.port.rank, dst=conn.remote_rank,
                     error=str(error))
        if self.detector is not None:
            from repro.faults.death import CHANNEL_SUSPECT, PEER_DEAD
            verdict = self.detector.on_transport_failure(conn, error)
            if verdict == PEER_DEAD:
                return  # traffic drained; MPI raises ERR_PROC_FAILED
            if verdict != CHANNEL_SUSPECT:
                # Undecided: silence is growing but below the threshold.
                # Reset the retry budget and keep hammering — either an
                # ack refreshes the peer or silence crosses the line.
                self._failover_connection(conn)
                return
        if channel.dead:
            self._failover_connection(conn)
            return
        count = self._failures.get(channel.id, 0) + 1
        self._failures[channel.id] = count
        if count >= self.death_threshold:
            self.mark_dead(channel, cause=error)
        else:
            # Give the channel another chance: reset the connection's
            # retry budget and keep hammering.
            self._failover_connection(conn)

    def mark_dead(self, channel: "Channel",
                  cause: TransportError | None = None) -> None:
        """Declare ``channel`` dead and fail all of its traffic over."""
        if channel.dead:
            return
        channel.dead = True
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("failover.channels", 1, channel=channel.name,
                      protocol=channel.protocol)
            ins.emit("failover.channel_dead", channel=channel.name,
                     protocol=channel.protocol,
                     cause=str(cause) if cause else "")
        # Wake receivers parked on the channel so they can adapt.
        for rank in sorted(channel.ports):
            channel.ports[rank].incoming.post(DeadChannelNotice(channel))
        # Let devices react (ch_mad re-elects its eager threshold).
        for listener in list(channel._death_listeners):
            listener(channel)
        # Tunnel every in-flight message, in sequence order per connection.
        for rank in sorted(channel.ports):
            port = channel.ports[rank]
            for remote in sorted(port._connections):
                conn = port._connections[remote]
                if conn.unacked:
                    self._failover_connection(conn)

    def _failover_connection(self, conn: "Connection") -> None:
        """Reset and retransmit a connection's unacked messages (tunnelled)."""
        transport = conn.port.process.transport
        pendings = [conn.unacked[seq] for seq in sorted(conn.unacked)]
        for pending in pendings:
            pending.cancel_timer()
            pending.attempts = 0
        transport.spawn_resend(conn, pendings)
