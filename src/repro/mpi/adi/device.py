"""Device base class and the per-process progress engine.

The :class:`ProgressEngine` is the receive-side heart of the ADI: every
device — ch_self, smp_plug, ch_p4, ch_mad — delivers arrivals into the
same posted/unexpected queues, which is what makes ``MPI_ANY_SOURCE``
receives work across devices (§2.3: the ADI data structures are
"multi-device-ready"; our single progress engine realizes that).

The rendezvous *protocol* lives here too, once (§1: "short/eager/
rendezvous protocols" belong to the ADI, devices only move packets):
:meth:`Device.send_rndv` is the sender's state machine, the
``deliver_rndv_*`` methods are the receiver's, and one per-process
``pending_sends`` table holds every send awaiting its acknowledgement,
whichever device carries it.

Deadlock rule (§4.2.3): a *polling thread* must never block in a send.
``deliver_rndv_request`` therefore spawns a temporary Marcel thread to
emit the acknowledgement when the matching receive was already posted;
when the receive arrives later, the application's own (main) thread sends
the acknowledgement inline.
"""

from __future__ import annotations

import copy as _copy
import itertools
from typing import Any, Generator, TYPE_CHECKING

import numpy as np

from repro.errors import MPIError, MPIProcFailedError
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.adi.queues import (
    PostedQueue,
    UnexpectedEntry,
    UnexpectedKind,
    UnexpectedQueue,
)
from repro.mpi.adi.rhandle import RecvHandle, SendHandle
from repro.sim.coroutines import charge, wait
from repro.sim.sync import Condition

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.session import MadProcess

#: MPI_ERR_TRUNCATE as a status error code.
ERR_TRUNCATE = 15

#: Rendezvous sync addresses (``RecvHandle.sync_id``), unique per run.
_sync_ids = itertools.count(1)


def clone_payload(obj: Any) -> Any:
    """Detach a payload from the sender's buffer (MPI value semantics).

    Immutable objects pass through; numpy arrays and general mutables are
    copied so a receiver can never alias the sender's memory (only
    observable with ch_self/smp_plug, where no wire intervenes).  Called
    once per send, at the MPI call; devices pass the copy on.
    """
    if obj is None or isinstance(obj, (bytes, str, int, float, bool, complex,
                                       frozenset, tuple)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return _copy.deepcopy(obj)


class ProgressEngine:
    """Shared receive-side state of one MPI process.

    It holds the posted and unexpected queues, the send-ordering gates,
    the rendezvous ``sync_registry`` and the ``pending_sends`` table.
    Every receive is one :class:`RecvHandle`, built per call and owned
    by whoever posted it.  The queues and the registry drop their
    reference when the handle completes, so the engine keeps nothing of
    a finished receive and needs no free-list of handles.
    """

    def __init__(self, process: "MadProcess", byte_order: str = "little",
                 heterogeneity_conversion: bool = True):
        self.process = process
        self.memory = process.memory
        self.runtime = process.runtime
        #: This node's native representation and whether the ADI converts
        #: foreign-order numeric payloads (Fig. 1 "heterogeneity").
        self.byte_order = byte_order
        self.heterogeneity_conversion = heterogeneity_conversion
        #: Conversions performed (diagnostic).
        self.conversions = 0
        #: Diagnostics.
        self.eager_delivered = 0
        self.rndv_completed = 0
        #: Fault-tolerance state of the owning env (None = FT off).
        #: When set, arrivals from dead ranks or on revoked/failed
        #: contexts are discarded before they can reach user code.
        self.ft = None
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        #: Per-(context, destination) send-ordering gates (MPI
        #: non-overtaking; see repro.mpi.point2point.SendGate).
        self.send_gates: dict = {}
        #: sync_id -> RecvHandle awaiting its rendezvous data packet: the
        #: MPID_RNDV_T "address book".
        self.sync_registry: dict = {}
        #: send_id -> SendHandle awaiting its rendezvous ack, on any
        #: device (read by the FT sweep and the finalize audit).
        self.pending_sends: dict = {}
        #: Broadcast on every arrival; blocking probes wait here.
        self.arrivals = Condition(name="adi-arrivals")

    # -- registry ------------------------------------------------------------

    def register_sync(self, handle: RecvHandle) -> int:
        """Give ``handle`` its rendezvous address and file it under it."""
        sync_id = handle.sync_id = next(_sync_ids)
        self.sync_registry[sync_id] = handle
        return sync_id

    # -- arrival paths (run by polling threads or ch_self) ----------------------

    def deliver_eager(self, envelope: Envelope, data: Any,
                      charge_copy: bool = True,
                      copy_on_match: bool | None = None,
                      copy_on_buffer: bool | None = None) -> Generator:
        """An eager data packet arrived: match or buffer.

        Copy charging is device-specific: ch_mad pays the paper's eager
        "intermediary copy on the receiving side" in both branches
        (default); ch_self charges its single memcpy itself
        (``charge_copy=False``); ch_p4 reads straight into a posted user
        buffer but must buffer unexpected arrivals
        (``copy_on_match=False, copy_on_buffer=True``).
        """
        if copy_on_match is None:
            copy_on_match = charge_copy
        if copy_on_buffer is None:
            copy_on_buffer = charge_copy
        if self.ft is not None and self.ft.should_discard(envelope):
            self.ft.note_discard(envelope)
            return
        if envelope.byte_order != self.byte_order:
            data = yield from self._heterogeneity(envelope, data)
        handle = self.posted.match(envelope)
        if handle is not None:
            checker = self.runtime.engine.checker
            if checker.enabled:
                checker.on_match(envelope, self.process.rank)
            if copy_on_match:
                yield charge(self.memory.copy_cost(envelope.size))
            self._check_truncation(handle, envelope)
            handle.complete(envelope, data)
            self.eager_delivered += 1
        else:
            if copy_on_buffer:
                # Copy into the unexpected buffer; a second copy happens
                # when the receive finally matches.
                yield charge(self.memory.copy_cost(envelope.size))
            self.unexpected.add(UnexpectedEntry(envelope, UnexpectedKind.EAGER,
                                                data=data))
        self.arrivals.notify_all()

    def deliver_rndv_request(self, envelope: Envelope,
                             token: RndvToken) -> Generator:
        """A rendezvous request arrived (MAD_REQUEST_PKT path)."""
        if self.ft is not None and self.ft.should_discard(envelope):
            self.ft.note_discard(envelope, send_id=token.send_id)
            return
        handle = self.posted.match(envelope)
        if handle is not None:
            checker = self.runtime.engine.checker
            if checker.enabled:
                checker.on_match(envelope, self.process.rank)
            self._check_truncation(handle, envelope)
            handle.rndv_source = envelope.source
            sync_id = self.register_sync(handle)
            # Polling threads must not send: spawn the ack thread (§4.2.3).
            self.runtime.spawn_temporary(
                token.device.send_rndv_ack(token, sync_id), name="rndv-ack")
        else:
            self.unexpected.add(UnexpectedEntry(envelope,
                                                UnexpectedKind.RNDV_REQUEST,
                                                rndv_token=token))
        self.arrivals.notify_all()
        return
        yield  # pragma: no cover - generator marker

    def deliver_rndv_ack(self, send_id: int, sync_id: int) -> None:
        """The acknowledgement arrived: release the waiting sender with
        the receiver's sync address."""
        shandle = self.pending_sends.pop(send_id, None)
        if shandle is None:
            if self.ft is not None:
                # FT already failed this send (its peer was declared
                # dead, or the comm revoked) — the straggler ack from a
                # rank that was merely slow is expected, not fatal.
                ins = self.runtime.engine.instruments
                if ins.enabled:
                    ins.count("ft.stale_acks", 1, rank=self.process.rank)
                return
            raise MPIError(f"rendezvous ack for unknown send id {send_id}")
        shandle.ack_flag.set(sync_id)

    def deliver_rndv_data(self, sync_id: int, envelope: Envelope,
                          data: Any) -> Generator:
        """The zero-copy data packet arrived: finish the transaction."""
        if self.ft is not None and self.ft.should_discard(envelope):
            self.sync_registry.pop(sync_id, None)
            self.ft.note_discard(envelope)
            return
        handle = self.sync_registry.pop(sync_id, None)
        if handle is None:
            if self.ft is not None:
                # The FT layer drained this sync entry when it failed the
                # receive; the straggler data packet is expected.
                self.ft.note_discard(envelope)
                return
            raise MPIError(f"rendezvous data for unknown sync_id {sync_id}")
        # Zero-copy: the data lands in the user buffer; no memcpy charge
        # (heterogeneity conversion, when needed, is charged).
        if envelope.byte_order != self.byte_order:
            data = yield from self._heterogeneity(envelope, data)
        handle.complete(envelope, data)
        self.rndv_completed += 1
        self.arrivals.notify_all()
        return
        yield  # pragma: no cover - generator marker

    def _heterogeneity(self, envelope: Envelope, data: Any) -> Generator:
        """Convert a foreign-byte-order payload to the local order.

        Entered only for a foreign ``envelope.byte_order``.  Conversion
        only applies to numeric buffers (numpy arrays) — the ADI's
        datatype engine knows their element layout.  With conversion
        disabled (ablation), foreign arrays arrive raw: the receiver sees
        byte-swapped garbage, exactly what a heterogeneous cluster
        without Fig. 1's "heterogeneity" box would produce.
        """
        if not isinstance(data, np.ndarray) or data.dtype.itemsize <= 1:
            return data
        if not self.heterogeneity_conversion:
            return data.byteswap()  # raw foreign bytes, misinterpreted
        # Swap in place conceptually: one pass over the payload.
        yield charge(self.memory.copy_cost(envelope.size))
        self.conversions += 1
        return data

    @staticmethod
    def _check_truncation(handle: RecvHandle, envelope: Envelope) -> None:
        if handle.capacity is not None and envelope.size > handle.capacity:
            handle.status.error = ERR_TRUNCATE


class Device:
    """Abstract device (an MPID_Device).

    The ADI runs the protocols; a device only prices and emits packets.
    Concrete devices implement, as generators:

    - :meth:`send_eager` — transmit envelope+data; returns at local
      completion (data is out of the user's hands);
    - :meth:`rndv_request` — emit the rendezvous request for
      ``shandle`` (and choose the data phase, if the device has more
      than one: ``shandle.phase``);
    - :meth:`rndv_data` — move the body to the receiver's ``sync_id``;
    - :meth:`send_rndv_ack` — receiver side: emit OK_TO_SEND for a
      pending request ``token`` carrying our ``sync_id``.

    On arrival of an acknowledgement the device calls
    ``progress.deliver_rndv_ack(send_id, sync_id)``.

    ``eager_threshold`` is the single integer the ADI reserves for the
    transfer-mode switch point (§4.2.2).
    """

    name = "device"
    eager_threshold: int = 0
    progress: ProgressEngine

    def threshold(self, dest_world: int) -> int:
        """Eager/rendezvous switch point towards ``dest_world``.

        The generic ADI stores a single integer per device
        (:attr:`eager_threshold`); devices whose networks differ per
        destination (ch_mad's per-network ablation) override this.
        """
        return self.eager_threshold

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        raise NotImplementedError  # pragma: no cover

    def send_rndv(self, dest_world: int, shandle: SendHandle) -> Generator:
        """Rendezvous, sender side (§4.2.2): request, await the ack
        carrying the receiver's sync address, send the data.  Runs in the
        sending process; the same for every device."""
        pending = self.progress.pending_sends
        pending[shandle.send_id] = shandle
        yield from self.rndv_request(dest_world, shandle)
        shandle.notify_request_sent()  # match slot secured: release ordering
        # Wait-for-graph metadata: this wait depends on the receiver rank
        # (the text is formatted only if a diagnosis reads it).
        ack, send_id = shandle.ack_flag, shandle.send_id
        ack.rank_dep = dest_world
        ack.dep_describe = lambda: (f"rendezvous ack from rank {dest_world} "
                                    f"(send_id={send_id})")
        sync_id = yield wait(ack)
        if sync_id is None:
            # The FT layer failed this send (peer death / revoke) and
            # released the ack flag with no sync address.  Surface the
            # structured error instead of transmitting into the void.
            pending.pop(shandle.send_id, None)
            raise shandle.error or MPIProcFailedError(
                f"rendezvous to rank {dest_world} aborted: peer failed",
                failed_rank=dest_world,
            )
        yield from self.rndv_data(dest_world, shandle, sync_id)
        shandle.flag.set()

    def rndv_request(self, dest_world: int, shandle: SendHandle) -> Generator:
        raise NotImplementedError  # pragma: no cover

    def rndv_data(self, dest_world: int, shandle: SendHandle,
                  sync_id: int) -> Generator:
        raise NotImplementedError  # pragma: no cover

    def send_rndv_ack(self, token: RndvToken, sync_id: int) -> Generator:
        raise NotImplementedError  # pragma: no cover

    def shutdown(self) -> None:
        """Stop polling threads etc. (MPI_Finalize)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.name} threshold={self.eager_threshold}>"
