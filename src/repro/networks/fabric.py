"""One physical network: adapters, wire occupancy, delivery.

A :class:`NetworkFabric` models a switched network of one protocol
(one Fast-Ethernet switch, one SCI ringlet/switch, one Myrinet switch).
Adapters attach to it; any adapter can transmit to any other.  The model
charges:

- transmit-side serialization: a chunk occupies the sender adapter's
  transmit port for ``wire_time(chunk)`` (back-to-back chunks queue);
- propagation/switching: delivery fires ``wire_latency`` after the chunk
  leaves the transmit port (plus any protocol ``long_extra_latency``).

Receive-side CPU costs are charged by whoever consumes the delivery (the
Madeleine driver's polling handler) — the fabric only moves bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import NetworkError, RouteError
from repro.sim.engine import Engine
from repro.sim.sync import Flag
from repro.networks.params import ProtocolParams


class Delivery(NamedTuple):
    """What lands in a receive queue: one complete message (immutable;
    a ``NamedTuple`` because one is built per message).

    ``payload`` is opaque to the network (the Madeleine driver puts its
    own wire structures there).  ``nbytes`` is the payload size actually
    serialized, used by receive-side cost accounting.
    """

    source: "Adapter"
    dest: "Adapter"
    nbytes: int
    payload: Any
    sent_at: int
    delivered_at: int
    #: Set by the fault injector: the bytes arrived but are poisoned.  The
    #: reliable transport's simulated checksum detects this and treats the
    #: delivery as a loss; without reliability the poison reaches the
    #: application (exactly what an unchecksummed DMA network would do).
    corrupted: bool = False


# The RDMA wire records live here, not in networks/ib.py: the InfiniBand
# model builds them, but every process's delivery demux tells them from
# channel traffic, and a run without IB must not compile the IB model.
_op_ids = itertools.count(1)


class RdmaOp:
    """One RDMA work request on the wire (write, read request, read data).

    Doubles as the initiator-side completion handle: the HCA ack (or the
    read-data packet) sets :attr:`flag`.  Carries ``source_rank`` so the
    receiving node's failure detector counts RDMA traffic as liveness
    evidence, like any other wire message.
    """

    __slots__ = ("op_id", "kind", "source_rank", "nbytes", "header",
                 "sync_id", "envelope", "data", "key", "offset",
                 "flag", "completed", "error")

    def __init__(self, kind: str, source_rank: int, nbytes: int, *,
                 op_id: int | None = None, header: Any = None,
                 sync_id: int = 0, envelope: Any = None, data: Any = None,
                 key: Any = None, offset: int = 0):
        self.op_id = next(_op_ids) if op_id is None else op_id
        self.kind = kind            # "write" | "read" | "read-data"
        self.source_rank = source_rank
        self.nbytes = nbytes
        self.header = header        # synthetic ch_mad header (write ops)
        self.sync_id = sync_id
        self.envelope = envelope
        self.data = data
        self.key = key              # exposed-region key (read ops)
        self.offset = offset
        self.flag = Flag(name=f"rdma-op-{self.op_id}")
        self.completed = False
        self.error: Exception | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RdmaOp #{self.op_id} {self.kind} {self.nbytes}B>"


@dataclass(frozen=True)
class HcaAck:
    """Hardware-level acknowledgement of one :class:`RdmaOp`."""

    op_id: int
    source_rank: int


class Adapter:
    """One NIC port attached to a fabric.

    ``rx_sink`` is set by the protocol endpoint that owns the adapter; it
    receives :class:`Delivery` objects (typically forwarding them into a
    polling thread's mailbox).
    """

    def __init__(self, fabric: "NetworkFabric", owner: Any, index: int):
        self.fabric = fabric
        self.owner = owner
        self.index = index
        self.rx_sink: Callable[[Delivery], None] | None = None
        #: Set when the owning process died (NodeDeath): the NIC neither
        #: transmits nor receives, silently — survivors only see the wire
        #: go dark.
        self.dead: bool = False
        #: Time the transmit port is next free (serialization occupancy).
        self.tx_free: int = 0
        #: Diagnostics.
        self.bytes_sent = 0
        self.messages_sent = 0
        self.bytes_received = 0
        self.messages_received = 0

    @property
    def name(self) -> str:
        return f"{self.fabric.params.name}[{self.index}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Adapter {self.name} owner={self.owner!r}>"


class NetworkFabric:
    """A switched network of one protocol."""

    def __init__(self, engine: Engine, params: ProtocolParams, name: str | None = None):
        self.engine = engine
        self.params = params
        self.name = name or params.name
        self.adapters: list[Adapter] = []
        #: Fault injector consulted on every complete-message transmission
        #: (None = the perfect network of the paper's measurements).
        self.injector = None
        #: Per (src, dst) adapter pair: last scheduled delivery time, used
        #: to keep deliveries FIFO even when per-message latency varies
        #: (e.g. BIP's long-message handshake).
        self._pair_last: dict[tuple[int, int], int] = {}

    def attach(self, owner: Any) -> Adapter:
        """Create a new adapter on this fabric owned by ``owner``."""
        adapter = Adapter(self, owner, index=len(self.adapters))
        self.adapters.append(adapter)
        return adapter

    # -- transmission -------------------------------------------------------

    def transmit_chunk(self, src: Adapter, dst: Adapter, nbytes: int,
                       extra_latency: int = 0,
                       on_arrival: Callable[[int], None] | None = None) -> int:
        """Serialize one chunk out of ``src`` towards ``dst``.

        Returns the arrival time.  ``on_arrival`` (if given) fires at that
        time with the arrival timestamp — used internally to complete
        multi-chunk messages.
        """
        self._check_route(src, dst)
        now = self.engine.now
        start = max(now, src.tx_free)
        done = start + self.params.wire_time(nbytes)
        src.tx_free = done
        arrival = done + self.params.wire_latency + extra_latency
        if on_arrival is not None:
            self.engine.schedule_at(arrival, on_arrival, arrival)
        return arrival

    def transmit_paced(self, src: Adapter, dst: Adapter, sizes: list[int],
                       gaps: list[int], start: int,
                       extra_latency: int = 0) -> int:
        """Serialize chunks handed over one after another, in the past.

        Chunk ``k`` of ``sizes`` was ready ``gaps[k]`` ns after chunk
        ``k-1`` (the first, after ``start``); the last is ready now.
        Same occupancy rule as calling :meth:`transmit_chunk` at each of
        those instants — exact only if nothing else used ``src`` since
        ``start``, which the caller vouches for.  Returns the last
        chunk's arrival time.
        """
        self._check_route(src, dst)
        wire_time = self.params.wire_time
        ready, tx_free = start, src.tx_free
        for size, gap in zip(sizes, gaps):
            ready += gap
            tx_free = max(ready, tx_free) + wire_time(size)
        src.tx_free = tx_free
        return tx_free + self.params.wire_latency + extra_latency

    def transmit_message(self, src: Adapter, dst: Adapter, nbytes: int,
                         payload: Any, extra_latency: int = 0) -> None:
        """Send a whole message as pipelined chunks; deliver on last arrival.

        The caller has already charged sender CPU costs.  Chunks only
        occupy the transmit port here — per-chunk sender CPU pipelining
        is the endpoint's job (it interleaves charges with chunk posts).
        """
        sent_at = self.engine.now
        sizes = self.params.chunks(nbytes)
        # Every chunk is ready now: transmit_chunk's rule, chunk by chunk.
        last_arrival = self.transmit_paced(src, dst, sizes, [0] * len(sizes),
                                           sent_at, extra_latency)
        self.schedule_delivery(src, dst, nbytes, payload, last_arrival, sent_at)

    def schedule_delivery(self, src: Adapter, dst: Adapter, nbytes: int,
                          payload: Any, arrival: int, sent_at: int) -> int:
        """Schedule a complete-message delivery, enforcing per-pair FIFO.

        Returns the (possibly clamped) delivery time.  When a fault
        injector is installed, the message may instead be dropped (wire
        time was already spent — the bytes went out and vanished),
        poisoned, or delayed.
        """
        corrupted = False
        if src.dead or dst.dead:
            # A dead NIC neither sends nor receives: the message silently
            # vanishes (wire occupancy, if any, was already charged).
            ins = self.engine.instruments
            if ins.enabled:
                ins.count("faults.dropped", 1, fabric=self.name,
                          reason="node_death")
                ins.emit("fault.drop", fabric=self.name, src=src.index,
                         dst=dst.index, nbytes=nbytes, reason="node_death")
            return arrival
        if self.injector is not None:
            decision = self.injector.decide(self.name, src.index, dst.index,
                                            nbytes)
            if decision.dropped:
                ins = self.engine.instruments
                if ins.enabled:
                    ins.count("faults.dropped", 1, fabric=self.name,
                              reason=decision.reason)
                    ins.emit("fault.drop", fabric=self.name, src=src.index,
                             dst=dst.index, nbytes=nbytes,
                             reason=decision.reason)
                return arrival
            corrupted = decision.corrupted
            if corrupted or decision.extra_latency:
                ins = self.engine.instruments
                if ins.enabled:
                    if corrupted:
                        ins.count("faults.corrupted", 1, fabric=self.name)
                        ins.emit("fault.corrupt", fabric=self.name,
                                 src=src.index, dst=dst.index, nbytes=nbytes)
                    else:
                        ins.count("faults.delayed", 1, fabric=self.name)
                        ins.emit("fault.delay", fabric=self.name,
                                 src=src.index, dst=dst.index,
                                 extra=decision.extra_latency)
                arrival += decision.extra_latency
        key = (src.index, dst.index)
        arrival = max(arrival, self._pair_last.get(key, 0))
        self._pair_last[key] = arrival
        delivery = Delivery(src, dst, nbytes, payload, sent_at, arrival,
                            corrupted)
        self.engine.schedule_at(arrival, self._deliver, delivery)
        return arrival

    def _deliver(self, delivery: Delivery) -> None:
        dst = delivery.dest
        if dst.dead or delivery.source.dead:
            # Death raced an already-scheduled delivery: drop it silently.
            return
        dst.bytes_received += delivery.nbytes
        dst.messages_received += 1
        src = delivery.source
        src.bytes_sent += delivery.nbytes
        src.messages_sent += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                "net.deliver", fabric=self.name, src=src.index, dst=dst.index,
                nbytes=delivery.nbytes,
                latency=delivery.delivered_at - delivery.sent_at,
            )
        if dst.rx_sink is None:
            raise NetworkError(
                f"delivery to adapter {dst.name} with no rx_sink installed"
            )
        dst.rx_sink(delivery)

    def _check_route(self, src: Adapter, dst: Adapter) -> None:
        if src.fabric is not self or dst.fabric is not self:
            raise RouteError(
                f"adapters {src.name} and {dst.name} are not both on fabric {self.name}"
            )
        if src is dst:
            raise RouteError(f"adapter {src.name} cannot transmit to itself")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NetworkFabric {self.name} adapters={len(self.adapters)}>"
