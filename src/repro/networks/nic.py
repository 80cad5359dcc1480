"""Protocol endpoints: the per-node send/receive machinery of one network.

A :class:`ProtocolEndpoint` is what a Madeleine driver talks to.  It owns
one adapter on one fabric and provides:

- ``send_message`` — a generator run by the *sending thread*: pays the
  modelled sender CPU costs (pipelined per chunk against the wire, as
  one charge) and hands chunks to the fabric;
- ``rx_mailbox`` — where complete message deliveries land, for a Marcel
  polling thread to consume;
- ``poll_source`` — the polling configuration for this protocol (§3.3:
  per-protocol polling mode and frequency);
- ``recv_cost`` — the receive-side CPU charge the polling handler must
  pay per delivered message.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.marcel.polling import PollSource
from repro.networks.fabric import Adapter, Delivery, NetworkFabric
from repro.networks.params import ProtocolParams
from repro.sim.coroutines import charge
from repro.sim.engine import Engine
from repro.sim.sync import Mailbox


class ProtocolEndpoint:
    """Base endpoint; protocol-specific subclasses tweak the send path."""

    def __init__(self, engine: Engine, fabric: NetworkFabric, owner: Any = None):
        self.engine = engine
        self.fabric = fabric
        self.params: ProtocolParams = fabric.params
        self.owner = owner
        self.adapter: Adapter = fabric.attach(self)
        self.adapter.rx_sink = self._on_delivery
        self.rx_mailbox = Mailbox(name=f"{self.adapter.name}.rx")

    # -- receive side --------------------------------------------------------

    def _on_delivery(self, delivery: Delivery) -> None:
        self.rx_mailbox.post(delivery)

    def poll_source(self, name: str | None = None) -> PollSource:
        """Polling configuration for the channel bound to this endpoint."""
        p = self.params
        return PollSource(
            name=name or self.adapter.name,
            mode=p.poll_mode,
            mailbox=self.rx_mailbox,
            poll_cost=p.poll_cost,
            period=p.poll_period,
            idle_period=p.poll_idle_period,
        )

    def recv_cost(self, nbytes: int) -> int:
        """Receive-side CPU ns to consume a delivered message."""
        p = self.params
        return p.recv_overhead + round(nbytes * p.cpu_recv_ns_per_byte)

    # -- send side ---------------------------------------------------------

    def send_message(self, dst: "ProtocolEndpoint", nbytes: int,
                     payload: Any) -> Generator:
        """Generator run by the sending thread.

        Pays, in one charge, whatever the thread accrued on the way here
        (ch_mad handling, ``pack`` costs — ``CPU.owe``), the fixed
        per-message overhead and the sender per-byte cost, then hands
        the bytes to the fabric and returns — the wire and delivery
        proceed without the CPU.
        """
        p = self.params
        extra_send, extra_latency = self._long_message_extras(nbytes)
        overhead = p.send_overhead + extra_send
        if p.cpu_send_ns_per_byte > 0 and nbytes > p.chunk_size:
            yield from self._send_pipelined(dst, nbytes, payload, overhead,
                                            extra_latency)
        else:
            yield charge(overhead + round(nbytes * p.cpu_send_ns_per_byte))
            self.fabric.transmit_message(self.adapter, dst.adapter, nbytes,
                                         payload, extra_latency=extra_latency)

    def _send_pipelined(self, dst: "ProtocolEndpoint", nbytes: int,
                        payload: Any, overhead: int,
                        extra_latency: int) -> Generator:
        """A message longer than one chunk: the CPU prepares chunk k+1
        while chunk k serializes.

        Chunk k enters the wire when the CPU is done with it *and* the
        transmit port is free: ``t += cpu(k); tx_free = max(t, tx_free)
        + wire_time(k)``.  Only this adapter's ``tx_free`` is read or
        written, the adapter belongs to one process with one CPU, and the
        sending thread holds that CPU from the first chunk to the last —
        so the recurrence is private to this call and is priced in one
        charge instead of one per chunk (:class:`IbEndpoint`, whose HCA
        transmits on the same port without the CPU, cannot).
        """
        p = self.params
        sizes = p.chunks(nbytes)
        cpu_ns = [round(size * p.cpu_send_ns_per_byte) for size in sizes]
        cpu_total = sum(cpu_ns)
        yield charge(overhead + cpu_total)
        sent_at = self.engine.now - cpu_total
        last_arrival = self.fabric.transmit_paced(
            self.adapter, dst.adapter, sizes, cpu_ns, sent_at,
            extra_latency=extra_latency)
        self.fabric.schedule_delivery(self.adapter, dst.adapter, nbytes,
                                      payload, last_arrival, sent_at)

    def _long_message_extras(self, nbytes: int) -> tuple[int, int]:
        p = self.params
        if p.long_threshold and nbytes >= p.long_threshold:
            return p.long_extra_send, p.long_extra_latency
        return 0, 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.adapter.name}>"
