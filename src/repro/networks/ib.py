"""InfiniBand-like fabric: registration cost, registration cache, RDMA.

Grounded in Liu et al., *Design and Implementation of MPICH2 over
InfiniBand with RDMA Support*: the defining properties of the fabric are

- **memory registration is explicit and expensive** — a buffer must be
  pinned and translated before the HCA may touch it (``reg_overhead`` +
  ``reg_ns_per_byte``), which makes a *registration cache* (lazy
  deregistration, LRU) the difference between a fast and a useless
  rendezvous path;
- **RDMA write/read** move bytes with zero CPU on the remote side; the
  initiator learns completion from the HCA (modelled as a hardware-level
  ack), the target from the message content itself ("piggybacked"
  completion — the last bytes written carry the completion record);
- **the channel path still works** — send/recv over the IB fabric flows
  through the ordinary :class:`~repro.networks.nic.ProtocolEndpoint`
  machinery, paying bounce-buffer copies (``cpu_send_ns_per_byte`` /
  ``cpu_recv_ns_per_byte``) on both sides.  That copy cost is exactly
  what the rendezvous-over-RDMA path exists to avoid.

Reliability follows the IB RC (reliable connection) service: the HCA —
not a software transport thread — retransmits unacknowledged work
requests and drops corrupted packets at CRC check, deduplicating by
packet sequence number.  Both sides of that exchange run as plain engine
callbacks (:meth:`IbEndpoint._launch`, :meth:`IbEndpoint.hca_receive`),
never as sends from a polling thread, so the §4.2.3 polling-send
discipline is preserved by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import FailoverExhaustedError
from repro.marcel.polling import PollMode
from repro.networks.fabric import Delivery, HcaAck, RdmaOp
from repro.networks.nic import ProtocolEndpoint
from repro.networks.params import ProtocolParams
from repro.sim.coroutines import charge, wait
from repro.sim.sync import Mailbox
from repro.units import us

#: Wire size of an HCA-level acknowledgement packet.
HCA_ACK_BYTES = 16
#: CPU cost of a registration-cache hit (hash lookup, no pinning).
REG_CACHE_HIT_NS = 200


@dataclass(frozen=True)
class IbParams(ProtocolParams):
    """:class:`ProtocolParams` plus the IB memory-registration model."""

    #: Fixed cost of pinning + translating one buffer (mmap/get_user_pages).
    reg_overhead: int = us(15.0)
    #: Per-byte cost of building the translation table.
    reg_ns_per_byte: float = 0.35
    #: Cost of undoing a registration (lazy, on cache eviction).
    dereg_overhead: int = us(5.0)
    #: Registration-cache capacity (distinct cached buffers per endpoint).
    reg_cache_capacity: int = 32


#: IB 4X-like parameters.  The channel (packetized) path pays ~3 ns/byte
#: of bounce-buffer copy on each side — the copy the RDMA path elides —
#: while the wire runs at ~833 MB/s.  Eager threshold for ch_mad is set in
#: :mod:`repro.mpi.devices.ch_mad.switchpoints` (16 KiB).
IB_4X = IbParams(
    name="ib",
    send_overhead=us(0.6),
    cpu_send_ns_per_byte=3.0,
    wire_latency=us(3.0),
    wire_ns_per_byte=1.2,
    chunk_size=64 * 1024,
    wire_header_bytes=30,
    recv_overhead=us(0.5),
    cpu_recv_ns_per_byte=3.0,
    pack_op_cost=us(1.0),
    unpack_op_cost=us(1.0),
    poll_mode=PollMode.EVENT,
    poll_cost=us(0.3),
)


class RegistrationCache:
    """LRU cache of registered memory regions (lazy deregistration).

    Keys are *content-derived* (context id, tag, size...), never Python
    object identities, so two same-seed runs touch the cache in the same
    order — registration-cache behaviour is part of the deterministic
    cost model, not an accident of heap layout.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[Any, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, key: Any) -> bool:
        """Mark ``key`` used; return True on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Any, nbytes: int) -> Any | None:
        """Insert ``key``; return the evicted key if the cache overflowed."""
        self._entries[key] = nbytes
        if len(self._entries) > self.capacity:
            old_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            return old_key
        return None


class IbEndpoint(ProtocolEndpoint):
    """IB endpoint: channel path inherited, RDMA verbs added.

    The channel path (``send_message``/``rx_mailbox``) is the base class
    unchanged — IB as "just another Madeleine network".  The RDMA verbs
    bypass it entirely: :meth:`rdma_write` and :meth:`rdma_read` talk to
    the fabric directly and complete through :attr:`rdma_mailbox` (target
    side) or the op's flag (initiator side).
    """

    def __init__(self, engine, fabric, owner: Any = None):
        super().__init__(engine, fabric, owner)
        p = self.params
        capacity = getattr(p, "reg_cache_capacity", 32)
        self.reg_cache = RegistrationCache(capacity)
        #: Explicitly registered regions (windows): key -> nbytes.
        self._explicit: dict[Any, int] = {}
        #: Regions exposed for remote RDMA read: key -> buffer.
        self._exposed: dict[Any, Any] = {}
        #: Initiator bookkeeping: op_id -> in-flight RdmaOp.
        self._inflight: dict[int, RdmaOp] = {}
        #: Target-side dedup of retransmitted writes (IB PSN check).
        self._seen_ops: set[int] = set()
        #: Completed inbound RDMA writes, for the device's CQ poller.
        self.rdma_mailbox = Mailbox(name=f"{self.adapter.name}.cq")
        self.retransmits = 0
        self.crc_drops = 0

    # -- channel path --------------------------------------------------------

    def _send_pipelined(self, dst: ProtocolEndpoint, nbytes: int,
                        payload: Any, overhead: int,
                        extra_latency: int) -> Generator:
        """One charge *per chunk*: the port is not this thread's alone.

        The HCA (:meth:`_launch`, acks and read replies in
        :meth:`hca_receive`) transmits on this adapter from engine
        callbacks while the sending thread is between two chunks, so each
        chunk must find ``tx_free`` as it is at its own instant.
        """
        p = self.params
        yield charge(overhead)
        sent_at = self.engine.now
        last_arrival = sent_at
        for size in p.chunks(nbytes):
            yield charge(round(size * p.cpu_send_ns_per_byte))
            last_arrival = self.fabric.transmit_chunk(
                self.adapter, dst.adapter, size, extra_latency=extra_latency)
        self.fabric.schedule_delivery(self.adapter, dst.adapter, nbytes,
                                      payload, last_arrival, sent_at)

    # -- memory registration -------------------------------------------------

    def _rank(self) -> int | None:
        return getattr(self.owner, "rank", None)

    def _reg_cost(self, nbytes: int) -> int:
        p = self.params
        return getattr(p, "reg_overhead", 0) + round(
            nbytes * getattr(p, "reg_ns_per_byte", 0.0))

    def register(self, key: Any, nbytes: int) -> Generator:
        """Cached registration (p2p rendezvous buffers).

        Charges the full pin/translate cost on a miss, a cheap lookup on
        a hit.  Entries are deregistered lazily on LRU eviction — the
        Liu et al. pin-down cache — so they are exempt from the
        finalize-time registration-leak audit.
        """
        if self.reg_cache.touch(key):
            yield charge(REG_CACHE_HIT_NS)
            return
        yield charge(self._reg_cost(nbytes))
        evicted = self.reg_cache.insert(key, nbytes)
        if evicted is not None:
            yield charge(getattr(self.params, "dereg_overhead", 0))
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("rdma.reg_misses", 1, adapter=self.adapter.name)

    def register_explicit(self, key: Any, nbytes: int) -> Generator:
        """Pin a region for the lifetime of a window (no cache, no LRU).

        The checker tracks these: one that is still pinned at
        MPI_Finalize is a registration leak.
        """
        if key in self._explicit:
            return
        yield charge(self._reg_cost(nbytes))
        self._explicit[key] = nbytes
        checker = self.engine.checker
        if checker.enabled:
            checker.on_mem_register(self._rank(), key, nbytes)

    def deregister_explicit(self, key: Any) -> Generator:
        """Unpin an explicitly registered region."""
        self._explicit.pop(key, None)
        yield charge(getattr(self.params, "dereg_overhead", 0))
        checker = self.engine.checker
        if checker.enabled:
            checker.on_mem_deregister(self._rank(), key)

    def expose(self, key: Any, buffer: Any) -> None:
        """Make ``buffer`` remotely readable under ``key`` (RDMA read)."""
        self._exposed[key] = buffer

    def unexpose(self, key: Any) -> None:
        self._exposed.pop(key, None)

    # -- RDMA verbs (initiator side) ----------------------------------------

    def rdma_write(self, dst: ProtocolEndpoint, header: Any, envelope: Any,
                   sync_id: int, data: Any, nbytes: int) -> Generator:
        """Zero-copy RDMA write of ``data`` into ``dst``'s posted buffer.

        The sending thread charges only the WQE post (``send_overhead``)
        — no per-byte CPU; the wire transfer and RC retransmission run
        off engine callbacks.  Blocks until the HCA-level ack (initiator
        completion); the target side completes via its CQ mailbox when
        the data lands (piggybacked completion).
        """
        op = RdmaOp("write", self._rank(), nbytes, header=header,
                    sync_id=sync_id, envelope=envelope, data=data)
        yield charge(self.params.send_overhead)
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("rdma.writes", 1, adapter=self.adapter.name)
        yield from self._await_op(op, dst)

    def rdma_read(self, dst: ProtocolEndpoint, key: Any, offset: int,
                  nbytes: int) -> Generator:
        """RDMA read of ``nbytes`` at ``offset`` from ``dst``'s exposed
        region ``key``.  Zero CPU on the target; the data packet doubles
        as the acknowledgement.  Returns the bytes read."""
        op = RdmaOp("read", self._rank(), nbytes, key=key, offset=offset)
        yield charge(self.params.send_overhead)
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("rdma.reads", 1, adapter=self.adapter.name)
        yield from self._await_op(op, dst)
        return op.data

    def _await_op(self, op: RdmaOp, dst: ProtocolEndpoint) -> Generator:
        self._launch(op, dst, 0)
        op.flag.rank_dep = getattr(dst.owner, "rank", None)
        op.flag.dep_describe = (
            f"RDMA {op.kind} completion from rank "
            f"{getattr(dst.owner, 'rank', '?')} (op {op.op_id})")
        yield wait(op.flag)
        if op.error is not None:
            raise op.error

    def _launch(self, op: RdmaOp, dst: ProtocolEndpoint, attempt: int) -> None:
        """(Re)transmit ``op`` and arm the RC retransmission timer.

        Runs as a plain engine callback — the HCA, not a thread.  A
        completed op turns pending timers into no-ops.
        """
        if op.completed:
            return
        p = self.params
        if attempt > p.max_retries:
            self._inflight.pop(op.op_id, None)
            op.error = FailoverExhaustedError(
                f"RDMA {op.kind} op {op.op_id} unacked after "
                f"{p.max_retries} retransmissions",
                channel=self.fabric.name,
                remote_rank=getattr(dst.owner, "rank", None))
            op.completed = True
            op.flag.set()
            return
        if attempt:
            self.retransmits += 1
            ins = self.engine.instruments
            if ins.enabled:
                ins.count("rdma.retransmits", 1, adapter=self.adapter.name)
        self._inflight[op.op_id] = op
        # Request packets for reads are small; write/read-data carry the body.
        wire_bytes = op.nbytes if op.kind != "read" else 64
        self.fabric.transmit_message(self.adapter, dst.adapter, wire_bytes, op)
        # The timer must outlast the whole round trip — for reads the
        # *response* carries ``nbytes`` of data, so the timeout is sized
        # on the payload even though the request itself is tiny.
        timeout = p.retransmit_timeout(op.nbytes, attempt)
        self.engine.schedule_at(self.engine.now + timeout,
                                self._launch, op, dst, attempt + 1)

    # -- HCA receive side ----------------------------------------------------

    def hca_receive(self, delivery: Delivery) -> None:
        """Consume an RDMA-class delivery (called from the node demux).

        Implements the RC service: corrupted packets die at CRC check
        (the initiator's timer retransmits), duplicate writes are
        re-acked but applied once, acks complete initiator ops.
        """
        wire = delivery.payload
        if isinstance(wire, HcaAck):
            if delivery.corrupted:
                return  # lost ack; the retransmit timer re-covers it
            op = self._inflight.pop(wire.op_id, None)
            if op is not None and not op.completed:
                op.completed = True
                op.flag.set()
            return
        if delivery.corrupted:
            self.crc_drops += 1
            ins = self.engine.instruments
            if ins.enabled:
                ins.count("rdma.crc_drops", 1, adapter=self.adapter.name)
            return
        if wire.kind == "write":
            if wire.op_id not in self._seen_ops:
                self._seen_ops.add(wire.op_id)
                self.rdma_mailbox.post(wire)
            # Ack every receipt: a duplicate means our previous ack died.
            self.fabric.transmit_message(
                self.adapter, delivery.source, HCA_ACK_BYTES,
                HcaAck(wire.op_id, self._rank()))
        elif wire.kind == "read":
            region = self._exposed.get(wire.key)
            if region is None:
                return  # unexposed (window freed); requester times out
            data = bytes(bytearray(region[wire.offset:wire.offset + wire.nbytes]))
            reply = RdmaOp("read-data", self._rank(), wire.nbytes,
                           op_id=wire.op_id, data=data)
            # Reads are idempotent: a retransmitted request simply
            # re-reads, so the data packet needs no ack of its own.
            self.fabric.transmit_message(
                self.adapter, delivery.source, wire.nbytes, reply)
        elif wire.kind == "read-data":
            op = self._inflight.pop(wire.op_id, None)
            if op is not None and not op.completed:
                op.data = wire.data
                op.completed = True
                op.flag.set()
