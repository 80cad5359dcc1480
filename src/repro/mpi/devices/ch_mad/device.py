"""The ch_mad device proper (paper §4).

Responsibilities:

- map each destination process onto a Madeleine channel (the fastest
  network both ends have a board for — channel selection is the
  multi-protocol heart of the device);
- eager mode: one Madeleine message of header (EXPRESS) + body
  (CHEAPER) — the §4.2.2 split of the ADI short packet that avoids
  shipping a padded MPID_PKT_MAX_DATA_SIZE buffer;
- rendezvous mode: the three packet primitives of the ADI's handshake
  (:meth:`repro.mpi.adi.device.Device.send_rndv`) — MAD_REQUEST_PKT,
  MAD_SENDOK_PKT (carrying the receiver's MPID_RNDV_T sync address),
  and a data phase chosen once per request: one MAD_RNDV_PKT zero-copy
  message, or on an IB channel one RDMA write (Liu et al.), in which
  case the same request and ack travel under their MAD_RDMA_* names;
- one polling thread per channel (§4.2.3);
- the single elected eager/rendezvous threshold (§4.2.2), with an
  opt-in per-network mode used by the ablation benchmarks;
- EXTENSION (paper §6 future work): gateway forwarding for destinations
  with no shared network, via :mod:`repro.mpi.devices.ch_mad.forwarding`.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import (
    ChannelDeadError,
    ConfigurationError,
    FailoverExhaustedError,
    RouteError,
)
from repro.networks import base_protocol
from repro.madeleine.channel import ChannelPort
from repro.madeleine.constants import RECEIVE_CHEAPER, RECEIVE_EXPRESS, SEND_CHEAPER
from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.adi.rhandle import SendHandle
from repro.mpi.devices.ch_mad.forwarding import ForwardWrapper
from repro.mpi.devices.ch_mad.packets import (
    CH_MAD_HEADER_BYTES,
    FWD_ROUTING_BYTES,
    ChMadHeader,
    MadPktType,
)
from repro.mpi.devices.ch_mad.polling import ChannelPoller, RdmaCompletionPoller
from repro.mpi.devices.ch_mad.switchpoints import (
    CH_MAD_TUNING,
    CHANNEL_PREFERENCE,
    SWITCH_POINTS,
    ChMadTuning,
    elect_threshold,
)
from repro.sim.coroutines import charge, sleep


class ChMadDevice(Device):
    """All inter-node communication, over Madeleine channels."""

    name = "ch_mad"

    def __init__(self, progress: ProgressEngine, world_rank: int,
                 ports: dict[str, ChannelPort],
                 tuning: dict[str, ChMadTuning] | None = None,
                 per_network_thresholds: bool = False,
                 switch_points: dict[str, int] | None = None,
                 preference: tuple[str, ...] | None = None,
                 forward_routes: dict[int, int] | None = None,
                 padded_short_packets: bool = False,
                 rdma_rendezvous: bool = True):
        if not ports:
            raise ConfigurationError("ch_mad needs at least one channel port")
        self.progress = progress
        self.world_rank = world_rank
        self.ports = dict(ports)
        tuning = tuning or CH_MAD_TUNING
        #: port -> its protocol's tuning, looked up once (read per packet).
        self.tuning = {port: tuning[base_protocol(name)]
                       for name, port in self.ports.items()}
        #: Memo of :meth:`direct_port`: (dest_world, lane) -> port.
        self._routes: dict[tuple[int, int | None], ChannelPort | None] = {}
        self.switch_points = dict(switch_points or SWITCH_POINTS)
        #: The ADI's single threshold field: the elected value (§4.2.2).
        self.eager_threshold = elect_threshold(ports.keys(),
                                               self.switch_points)
        #: Ablation switch: pretend the ADI could store one threshold per
        #: network (what the paper wishes for) — see the ablation bench.
        self.per_network_thresholds = per_network_thresholds
        #: Ablation switch: ship eager bodies inside a fixed
        #: MPID_PKT_MAX_DATA_SIZE buffer instead of the §4.2.2 split —
        #: reproduces the padding waste the paper's design avoids.
        self.padded_short_packets = padded_short_packets
        self.preference = preference or CHANNEL_PREFERENCE
        #: Next-hop table for destinations with no shared network
        #: (forwarding extension; empty = paper's §6 limitation applies).
        self.forward_routes = dict(forward_routes or {})
        #: RDMA data phase on IB channels (off = packetized ablation:
        #: large messages take the MAD_RNDV_PKT path even on IB).
        self.rdma_rendezvous = rdma_rendezvous
        self._pollers: list = []
        self.term_received = 0
        self.packets_relayed = 0
        self.heartbeats_received = 0
        #: Session failure detector; set by :meth:`start_heartbeats` when
        #: the run is fault-tolerant.
        self.detector = None
        #: context id -> lane index, installed by the multi-lane
        #: collectives (:mod:`repro.mpi.coll.multilane`).  Traffic on an
        #: assigned context is steered to rail ``lane % live rails``
        #: instead of the preference-order winner.
        self.context_lanes: dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn one polling thread per channel (§4.2.3).

        IB channels get a second poller over the endpoint's RDMA
        completion queue: inbound rendezvous bodies written by remote
        HCAs complete there, never through the channel packet machinery.
        """
        for protocol in sorted(self.ports):
            port = self.ports[protocol]
            self._pollers.append(ChannelPoller(self, port))
            if base_protocol(protocol) == "ib" and \
                    hasattr(port.endpoint, "rdma_mailbox"):
                self._pollers.append(RdmaCompletionPoller(self, port))
            port.channel.add_death_listener(self._on_channel_death)

    def _on_channel_death(self, channel) -> None:
        """A channel died: future traffic re-routes, threshold re-elects.

        New sends naturally avoid the dead channel (``direct_port`` skips
        it); already-queued wire traffic is tunnelled by the reliable
        transport.  The ADI's single threshold field must be re-elected
        from the survivors — losing SCI, for example, drops the elected
        8 KB back to the survivors' own switch point (§4.2.2).
        """
        self._routes.clear()
        live = [name for name, port in self.ports.items()
                if not port.channel.dead]
        if not live:
            return  # nothing to elect from; sends will fail over loudly
        old = self.eager_threshold
        self.eager_threshold = elect_threshold(live, self.switch_points)
        engine = self.progress.runtime.engine
        engine.tracer.emit(
            "chmad.reelect_threshold", rank=self.world_rank,
            dead=channel.name, old=old, new=self.eager_threshold,
        )

    def start_heartbeats(self, detector) -> None:
        """Spawn the low-rate liveness heartbeat daemon (FT runs only).

        Piggybacked liveness covers busy periods for free; the heartbeat
        covers *idle* ones, where a dead peer's silence would otherwise
        be indistinguishable from a quiet one.  Beats go out on **every**
        live channel towards each peer, not just the preferred one — one
        fabric dying must not starve the liveness evidence that keeps
        the detector from misdiagnosing the peer itself as dead.
        """
        self.detector = detector

        def body() -> Generator:
            process = self.progress.process
            while True:
                yield sleep(detector.heartbeat_interval)
                if process.dead:
                    return
                yield from self._send_heartbeats()

        self.progress.runtime.spawn(body(), name="ft-heartbeat", daemon=True)

    def _send_heartbeats(self) -> Generator:
        engine = self.progress.runtime.engine
        header = ChMadHeader(MadPktType.MAD_HB_PKT)
        for name in sorted(self.ports):
            port = self.ports[name]
            if port.channel.dead:
                continue
            for peer in sorted(port.channel.ports):
                if peer == self.world_rank or peer in self.detector.dead_ranks:
                    continue
                try:
                    yield from self._emit(port, peer, header,
                                          CH_MAD_HEADER_BYTES)
                except FailoverExhaustedError:
                    self.detector.on_unreachable(peer)
                except (ChannelDeadError, RouteError):
                    continue  # the channel died mid-beat; next round adapts
                else:
                    ins = engine.instruments
                    if ins.enabled:
                        ins.count("ft.heartbeats", 1, rank=self.world_rank,
                                  protocol=port.channel.protocol)

    def shutdown(self) -> None:
        for poller in self._pollers:
            poller.stop()
        self._pollers.clear()
        for port in self.ports.values():
            if port.transport is not None:
                # One transport per process: cancel trailing ack timers so
                # they cannot fire into the torn-down session.
                port.transport.cancel_pending()
                break

    # -- channel selection ---------------------------------------------------------

    @property
    def preference(self) -> tuple[str, ...]:
        """Channel-selection order, fastest first by default; assigning it
        (Figure 9 steers traffic so) re-resolves every route."""
        return self._preference

    @preference.setter
    def preference(self, order) -> None:
        self._preference = tuple(order)
        self._routes.clear()

    def direct_port(self, dest_world: int,
                    lane: int | None = None) -> ChannelPort | None:
        """Fastest channel shared with the destination, if any.

        Rails of one protocol (``"bip"``, ``"bip#1"``) share a preference
        slot; the lowest-named rail that reaches the destination wins.
        With a ``lane``, selection rotates through *all* live rails that
        reach the destination (preference order, then name order), so
        lanes land on distinct rails wherever enough exist — and fold
        onto the survivors, modulo, when rails die.

        Every packet asks, so the answer is memoised per ``(dest_world,
        lane)``.  It depends only on which channels are alive and on
        :attr:`preference`: a channel death and a new preference drop
        the memo; :meth:`assign_lane` needs no drop (the lane is in the key).
        """
        key = (dest_world, lane)
        try:
            return self._routes[key]
        except KeyError:
            return self._routes.setdefault(
                key, self._resolve_port(dest_world, lane))

    def _resolve_port(self, dest_world: int,
                      lane: int | None) -> ChannelPort | None:
        candidates: list[ChannelPort] = []
        for protocol in self.preference:
            for name in sorted(self.ports):
                if base_protocol(name) != protocol:
                    continue
                port = self.ports[name]
                if port.channel.dead:
                    continue
                if dest_world in port.channel.ports:
                    if lane is None:
                        return port
                    candidates.append(port)
        if not candidates:
            return None
        return candidates[lane % len(candidates)]

    # -- multi-lane support (repro.mpi.coll.multilane) -------------------------

    def lane_count(self, dest_world: int | None = None) -> int:
        """Number of live rails (optionally: that reach ``dest_world``)."""
        count = 0
        for port in self.ports.values():
            if port.channel.dead:
                continue
            if dest_world is not None and \
                    dest_world not in port.channel.ports:
                continue
            count += 1
        return max(count, 1)

    def assign_lane(self, context_ids, lane: int) -> None:
        """Steer every context in ``context_ids`` onto rail ``lane``."""
        for context_id in context_ids:
            self.context_lanes[int(context_id)] = int(lane)

    def _lane_of(self, envelope: Envelope | None) -> int | None:
        """Lane of one outgoing packet, from its envelope's context.

        Control packets without an envelope (SENDOK, TERM) take the
        default rail — they are tiny and order-insensitive.
        """
        if not self.context_lanes or envelope is None:
            return None
        return self.context_lanes.get(envelope.context_id)

    def select_port(self, dest_world: int) -> ChannelPort:
        port = self.direct_port(dest_world)
        if port is None:
            if any(dest_world in p.channel.ports
                   for p in self.ports.values() if p.channel.dead):
                raise FailoverExhaustedError(
                    f"rank {self.world_rank}: every channel towards rank "
                    f"{dest_world} is dead",
                    remote_rank=dest_world,
                )
            raise ConfigurationError(
                f"rank {self.world_rank} shares no network with rank "
                f"{dest_world} (enable forwarding, or see "
                "repro.mpi.devices.ch_mad.forwarding)"
            )
        return port

    def threshold(self, dest_world: int) -> int:
        """Effective eager/rendezvous switch point towards ``dest_world``."""
        if not self.per_network_thresholds:
            return self.eager_threshold
        port = self.direct_port(dest_world)
        if port is None:
            return self.eager_threshold
        return self.switch_points[base_protocol(port.channel.protocol)]

    def _padded_body_size(self, size: int) -> int:
        """Eager body size on the wire under the padded-short ablation.

        The padded MPID_PKT_SHORT_T buffer must fit the largest switch
        point among the supported networks (§4.2.2's problem statement).
        """
        if not self.padded_short_packets:
            return size
        return max(self.switch_points[base_protocol(p)] for p in self.ports)

    # -- packet transmission core ----------------------------------------------------

    def _emit(self, port: ChannelPort, hop: int, header: Any,
              header_bytes: int, body: Any = None,
              body_bytes: int = 0) -> Generator:
        """One Madeleine message in the Figure-5 layout: the header
        EXPRESS, the body (if any) CHEAPER.

        The handling and both packs accrue; end_packing pays them with
        the NIC's send charge — one event per packet.  Returns the
        sending generator, like :meth:`_transmit_packet`.
        """
        port.cpu.owe(self.tuning[port].send_handling)
        message = port.begin_packing(hop)
        message.pack(header, header_bytes, SEND_CHEAPER, RECEIVE_EXPRESS)
        if body_bytes > 0:
            message.pack(body, body_bytes, SEND_CHEAPER, RECEIVE_CHEAPER)
        return message.end_packing()

    def _record_send(self, dest_world: int, header: ChMadHeader,
                     port: ChannelPort, body_size: int) -> None:
        """The ``chmad.send`` trace record and ``chmad.packets`` count of
        one packet leaving on ``port``."""
        engine = self.progress.runtime.engine
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(
                "chmad.send", src=self.world_rank, dst=dest_world,
                pkt=header.pkt_type.name, protocol=port.channel.protocol,
                body=body_size,
            )
        ins = engine.instruments
        if ins.enabled:
            ins.count("chmad.packets", 1, pkt=header.pkt_type.name,
                      protocol=port.channel.protocol, rank=self.world_rank,
                      dir="send")

    def _transmit_packet(self, dest_world: int, header: ChMadHeader,
                         body: Any, body_size: int,
                         wire_body_size: int | None = None) -> Generator:
        """Send one ch_mad packet, forwarding through a gateway if needed:
        route and stamp it now, return the generator that sends it (for
        the caller to ``yield from`` — no delegating frame per packet)."""
        checker = self.progress.runtime.engine.checker
        if checker.enabled:
            # Hooked before the forwarding branch: the checker sees each
            # logical packet exactly once, at its origin (relays re-enter
            # through send_wrapped, never through here).
            checker.on_chmad_send(self.world_rank, dest_world, header)
        port = self.direct_port(dest_world,
                                lane=self._lane_of(header.envelope))
        if port is None:
            if dest_world not in self.forward_routes:
                self.select_port(dest_world)  # raises the descriptive error
            wrapper = ForwardWrapper(final_dest=dest_world,
                                     origin=self.world_rank,
                                     header=header, body=body,
                                     body_size=body_size)
            return self.send_wrapped(dest_world, wrapper)
        self._record_send(dest_world, header, port, body_size)
        return self._emit(
            port, dest_world, header, CH_MAD_HEADER_BYTES, body,
            body_size if wire_body_size is None else wire_body_size)

    def send_wrapped(self, final_dest: int, wrapper: ForwardWrapper) -> Generator:
        """Transmit a forwarded packet to the next hop towards its dest."""
        if self.direct_port(final_dest) is not None:
            hop = final_dest  # last hop: deliver the wrapper directly
        else:
            hop = self.forward_routes.get(final_dest)
        if hop is None:
            raise RouteError(
                f"rank {self.world_rank}: no route to rank {final_dest} "
                "(forwarding disabled or topology disconnected)"
            )
        port = self.direct_port(hop)
        if port is None:
            raise RouteError(
                f"rank {self.world_rank}: next hop {hop} for rank "
                f"{final_dest} is not directly reachable"
            )
        yield from self._emit(port, hop, wrapper,
                              CH_MAD_HEADER_BYTES + FWD_ROUTING_BYTES,
                              wrapper.body, wrapper.body_size)

    # -- send paths ------------------------------------------------------------------

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        """Eager mode: MAD_SHORT_PKT header + optional CHEAPER body
        (returns :meth:`_transmit_packet`'s generator)."""
        header = ChMadHeader(MadPktType.MAD_SHORT_PKT, envelope)
        # The §4.2.2 split: the user buffer goes as the message body
        # (zero-copy on the sending side), never as padding inside a
        # MPID_PKT_MAX_DATA_SIZE-sized short packet — unless the padded
        # ablation is on, which shows exactly that waste.
        wire_size = self._padded_body_size(envelope.size) if envelope.size else 0
        return self._transmit_packet(dest_world, header, data, envelope.size,
                                     wire_size)

    def rndv_request(self, dest_world: int, shandle: SendHandle) -> Generator:
        """MAD_REQUEST_PKT — and the choice of data phase.

        Towards an IB channel the body will go as **one RDMA write**
        (Liu et al.): ``shandle.phase`` keeps the port, the send buffer
        is pre-registered (amortized by the registration cache) and the
        request travels as MAD_RDMA_REQ_PKT so the receiver registers
        its side before acknowledging.  Otherwise the phase is ``None``:
        one MAD_RNDV_PKT message.
        """
        envelope = shandle.envelope
        kind = MadPktType.MAD_REQUEST_PKT
        if self.rdma_rendezvous:
            port = self.direct_port(dest_world, lane=self._lane_of(envelope))
            if port is not None and \
                    base_protocol(port.channel.protocol) == "ib" and \
                    hasattr(port.endpoint, "rdma_write"):
                shandle.phase = port
                kind = MadPktType.MAD_RDMA_REQ_PKT
                yield from port.endpoint.register(
                    ("rndv-send", envelope.context_id, dest_world,
                     envelope.tag, envelope.size),
                    envelope.size,
                )
        yield from self._transmit_packet(
            dest_world,
            ChMadHeader(kind, envelope=envelope, send_id=shandle.send_id),
            None, 0,
        )

    def rndv_data(self, dest_world: int, shandle: SendHandle,
                  sync_id: int) -> Generator:
        """The data destination is known — zero-copy transfer."""
        envelope = shandle.envelope
        port = shandle.phase
        if port is not None:
            # No MAD_RNDV_PKT, no pack/unpack, no per-byte CPU on either
            # side; the write itself is the receiver's notification (via
            # its HCA completion queue), under a synthetic header.
            header = ChMadHeader(MadPktType.MAD_RDMA_DATA_PKT,
                                 envelope=envelope, sync_id=sync_id)
            checker = self.progress.runtime.engine.checker
            if checker.enabled:
                checker.on_chmad_send(self.world_rank, dest_world, header)
            self._record_send(dest_world, header, port, envelope.size)
            remote = port.channel.port(dest_world).endpoint
            yield from port.endpoint.rdma_write(remote, header, envelope,
                                                sync_id, shandle.data,
                                                envelope.size)
            return
        tuning = self.tuning[self._port_towards(dest_world)]
        if tuning.rndv_body_ns_per_byte:
            # Driver-side per-byte feeding cost (BIP credit machinery).
            yield charge(round(envelope.size * tuning.rndv_body_ns_per_byte))
        yield from self._transmit_packet(
            dest_world,
            ChMadHeader(MadPktType.MAD_RNDV_PKT, envelope=envelope,
                        sync_id=sync_id),
            shandle.data, envelope.size,
        )

    def send_rndv_ack(self, token: RndvToken, sync_id: int) -> Generator:
        """Rendezvous, receiver side: MAD_SENDOK_PKT with our sync id.

        ``token.phase`` is the request's envelope when the body will
        arrive by RDMA write: the receive buffer must be registered
        *before* the ack goes out — the ack is the sender's licence to
        write — and the ack travels as MAD_RDMA_ACK_PKT.
        """
        envelope = token.phase
        kind = MadPktType.MAD_SENDOK_PKT
        if envelope is not None:
            kind = MadPktType.MAD_RDMA_ACK_PKT
            port = self.direct_port(token.requester_world)
            if port is not None and hasattr(port.endpoint, "register"):
                yield from port.endpoint.register(
                    ("rndv-recv", envelope.context_id,
                     token.requester_world, envelope.tag, envelope.size),
                    envelope.size,
                )
        yield from self._transmit_packet(
            token.requester_world,
            ChMadHeader(kind, send_id=token.send_id, sync_id=sync_id),
            None, 0,
        )

    def send_term(self, dest_world: int) -> Generator:
        """MAD_TERM_PKT: program termination notification (MPI_Finalize)."""
        yield from self._transmit_packet(
            dest_world, ChMadHeader(MadPktType.MAD_TERM_PKT), None, 0,
        )

    def _port_towards(self, dest_world: int) -> ChannelPort:
        """The port a packet for ``dest_world`` leaves on (maybe via a
        gateway)."""
        port = self.direct_port(dest_world)
        if port is None and dest_world in self.forward_routes:
            port = self.direct_port(self.forward_routes[dest_world])
        if port is None:
            raise RouteError(f"no path towards rank {dest_world}")
        return port
