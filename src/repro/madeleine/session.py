"""Madeleine session bootstrap: processes, fabrics, channels.

A :class:`MadeleineSession` ties together the engine, one
:class:`~repro.networks.fabric.NetworkFabric` per physical network, and
one :class:`MadProcess` per simulated process.  Processes attach to the
networks they have boards for; channels are then opened over a protocol
for a set of member processes — the paper's "session" initialization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ChannelError, ConfigurationError
from repro.madeleine.channel import Channel, ChannelPort
from repro.marcel.thread import MarcelRuntime
from repro.networks import ENDPOINT_CLASSES, PROTOCOL_PARAMS, base_protocol
from repro.networks.fabric import Delivery, HcaAck, NetworkFabric, RdmaOp
from repro.networks.memory import MemoryModel
from repro.networks.nic import ProtocolEndpoint
from repro.networks.params import ProtocolParams
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.reliable import ChannelHealthMonitor, ReliableTransport


class MadProcess:
    """One simulated process: a Marcel runtime plus its network endpoints."""

    def __init__(self, engine: Engine, rank: int, name: str | None = None,
                 memory: MemoryModel | None = None, switch_cost: int = 150):
        self.engine = engine
        self.rank = rank
        self.name = name or f"proc{rank}"
        self.memory = memory or MemoryModel()
        self.runtime = MarcelRuntime(engine, name=self.name,
                                     switch_cost=switch_cost)
        if engine.checker.enabled:
            engine.checker.register_cpu(self.runtime.cpu, rank)
        #: Reliability engine; installed by the session *before* channels
        #: are opened (ChannelPorts snapshot it).  None = trusted networks.
        self.transport: ReliableTransport | None = None
        #: Set by the DeathController the instant this process dies: its
        #: threads are gone and its NICs are dark on every fabric.
        self.dead: bool = False
        #: Session failure detector (None when the plan has no deaths);
        #: every delivery feeds it piggybacked liveness evidence.
        self.detector = None
        self._endpoints: dict[str, ProtocolEndpoint] = {}
        self._ports_by_channel: dict[int, ChannelPort] = {}
        #: Multirail striping stream state (see repro.madeleine.striping):
        #: per-destination transfer counter, per-source expected transfer,
        #: and the hold-back stash for stripes that overtook their turn.
        self._stripe_tx_seq: dict[int, int] = {}
        self._stripe_rx_seq: dict[int, int] = {}
        self._stripe_stash: dict[tuple[int, int], list] = {}

    # -- networks ------------------------------------------------------------

    def attach_network(self, fabric: NetworkFabric,
                       endpoint_cls: type[ProtocolEndpoint] | None = None
                       ) -> ProtocolEndpoint:
        """Install a board for ``fabric``'s protocol in this process."""
        protocol = fabric.name
        if protocol in self._endpoints:
            raise ConfigurationError(
                f"{self.name} already has a {protocol} endpoint"
            )
        cls = endpoint_cls or ENDPOINT_CLASSES.get(base_protocol(protocol),
                                                   ProtocolEndpoint)
        endpoint = cls(self.engine, fabric, owner=self)
        # Replace the endpoint's default sink with the per-channel demux.
        endpoint.adapter.rx_sink = self._demux_delivery
        self._endpoints[protocol] = endpoint
        return endpoint

    def endpoint(self, protocol: str) -> ProtocolEndpoint:
        try:
            return self._endpoints[protocol]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no {protocol} board; attached protocols: "
                f"{sorted(self._endpoints)}"
            ) from None

    def protocols(self) -> tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    # -- channel plumbing -------------------------------------------------------

    def _register_port(self, port: ChannelPort) -> None:
        self._ports_by_channel[port.channel.id] = port

    def _demux_delivery(self, delivery: Delivery) -> None:
        if self.dead:
            return  # a delivery racing the moment of death: dropped
        wire = delivery.payload
        if self.detector is not None:
            # Piggybacked liveness: data, acks and heartbeats all prove
            # their source was alive when it transmitted (even corrupted
            # deliveries — the bytes arrived, the peer exists).
            source = getattr(wire, "source_rank", None)
            if source is not None:
                self.detector.heard_from(source)
        if isinstance(wire, (RdmaOp, HcaAck)):
            # RDMA traffic never belongs to a channel: it is consumed by
            # the HCA model of the fabric's own endpoint (which applies
            # the RC reliability rules — CRC drop, dedup, ack).
            endpoint = self._endpoints.get(delivery.dest.fabric.name)
            if endpoint is None:  # pragma: no cover - defensive
                raise ChannelError(
                    f"{self.name} received RDMA traffic for unattached "
                    f"fabric {delivery.dest.fabric.name!r}")
            endpoint.hca_receive(delivery)
            return
        channel_id = getattr(wire, "channel_id", None)
        port = self._ports_by_channel.get(channel_id)
        if port is None:
            raise ChannelError(
                f"{self.name} received a message for unknown channel id "
                f"{channel_id!r}"
            )
        if self.transport is not None:
            self.transport.receive(port, delivery)
            return
        port.incoming.post(delivery)

    def port(self, channel: Channel) -> ChannelPort:
        try:
            return self._ports_by_channel[channel.id]
        except KeyError:
            raise ChannelError(
                f"{self.name} is not a member of channel {channel.name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MadProcess {self.name} rank={self.rank} nets={self.protocols()}>"


class MadeleineSession:
    """A running Madeleine instance across several simulated processes."""

    def __init__(self, engine: Engine | None = None, fault_plan=None,
                 reliable: bool = False, ft: bool = False):
        self.engine = engine or Engine()
        #: A FaultPlan makes the fabrics misbehave; faults without
        #: reliability would silently lose application data, so a plan
        #: forces the reliable transport on.
        self.fault_plan = fault_plan
        #: The rank-failure model is armed by an explicit ``ft`` request
        #: or by a plan that actually kills ranks — otherwise the
        #: fault-tolerance machinery does not exist and the simulation is
        #: bit-identical to a build without it.
        self.ft = ft or (fault_plan is not None and bool(fault_plan.deaths))
        #: Detection rides the reliable transport's timeouts: ft forces it.
        self.reliable = reliable or fault_plan is not None or self.ft
        self.health: ChannelHealthMonitor | None = None
        if self.reliable:
            from repro.madeleine.reliable import ChannelHealthMonitor
            self.health = ChannelHealthMonitor(self.engine)
        self._injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector
            self._injector = FaultInjector(self.engine, fault_plan)
        self.detector = None
        self.death_controller = None
        if self.ft:
            from repro.faults.death import DeathController, FailureDetector
            self.detector = FailureDetector(self.engine, self)
            if self.health is not None:
                self.health.detector = self.detector
            if fault_plan is not None and fault_plan.deaths:
                self.death_controller = DeathController(
                    self.engine, self, fault_plan, self.detector
                )
        self.fabrics: dict[str, NetworkFabric] = {}
        self.processes: list[MadProcess] = []
        self.channels: dict[str, Channel] = {}

    # -- construction -----------------------------------------------------------

    def add_fabric(self, protocol: str,
                   params: ProtocolParams | None = None) -> NetworkFabric:
        """Create the physical network for ``protocol`` (once).

        Additional rails of one protocol use ``"proto#N"`` names (e.g.
        ``"bip#1"``) and inherit the base protocol's parameters — the
        paper's multiple-adapters-per-protocol capability (§3.1).
        """
        if protocol in self.fabrics:
            raise ConfigurationError(f"fabric {protocol!r} already exists")
        if params is None:
            try:
                params = PROTOCOL_PARAMS[base_protocol(protocol)]
            except KeyError:
                raise ConfigurationError(
                    f"no canned parameters for protocol {protocol!r}; "
                    "pass ProtocolParams explicitly"
                ) from None
        fabric = NetworkFabric(self.engine, params, name=protocol)
        fabric.injector = self._injector
        self.fabrics[protocol] = fabric
        return fabric

    def add_process(self, networks: Iterable[str] = (),
                    name: str | None = None,
                    memory: MemoryModel | None = None,
                    switch_cost: int = 150) -> MadProcess:
        """Create a process and attach it to the named networks."""
        process = MadProcess(self.engine, rank=len(self.processes), name=name,
                             memory=memory, switch_cost=switch_cost)
        if self.reliable:
            from repro.madeleine.reliable import ReliableTransport
            process.transport = ReliableTransport(process, self.health)
        process.detector = self.detector
        self.processes.append(process)
        for protocol in networks:
            if protocol not in self.fabrics:
                self.add_fabric(protocol)
            process.attach_network(self.fabrics[protocol])
        return process

    def new_channel(self, name: str, protocol: str,
                    ranks: Sequence[int] | None = None) -> Channel:
        """Open a channel over ``protocol`` for ``ranks`` (default: all
        processes that have a board for the protocol)."""
        if name in self.channels:
            raise ConfigurationError(f"channel {name!r} already exists")
        if protocol not in self.fabrics:
            raise ConfigurationError(f"no fabric for protocol {protocol!r}")
        channel = Channel(name, protocol)
        members: list[MadProcess]
        if ranks is None:
            members = [p for p in self.processes if protocol in p.protocols()]
        else:
            members = [self.processes[r] for r in ranks]
        if len(members) < 2:
            raise ConfigurationError(
                f"channel {name!r} needs at least two member processes"
            )
        for process in members:
            channel.add_port(process)
        self.channels[name] = channel
        return channel

    # -- execution ----------------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run the simulation (thin wrapper over the engine)."""
        return self.engine.run(until=until, max_events=max_events)
