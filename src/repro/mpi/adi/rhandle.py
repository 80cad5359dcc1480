"""Receive/send handles and the rendezvous sync structure (§4.2.2).

The paper: "On receiving side, transaction is handled by an ADI rhandle
structure.  This structure has a field whose type is MPID_RNDV_T.  In our
case, it corresponds to a synchronization structure containing a
semaphore and the address of the rhandle it belongs to."

Here the rhandle *is* that structure.  :class:`RecvHandle` is its own
completion flag, which does the semaphore's job: the receiving thread
blocks on the handle and the polling thread sets it when the data packet
lands.  Its ``sync_id`` plays the role of the structure's *address*: it
goes to the sender inside the acknowledgement packet and comes back
inside the data packet header, and the progress engine's
``sync_registry`` maps it straight to the handle, so the polling thread
finds the rhandle without any queue search.  No object points back at
the handle, so a finished receive is freed by reference counting alone
as soon as its caller drops it.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.mpi.adi.packets import Envelope
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.status import Status
from repro.sim.sync import Flag


class RecvHandle(Flag):
    """One pending receive transaction, and the flag that completes it.

    Completion, cancellation and fault-tolerance failure all ``set()``
    the handle with no value: waiters read :attr:`data` and
    :attr:`status`, never the wake value.
    """

    name = "rhandle"
    is_set = False
    value = None
    #: Rendezvous address (MPID_RNDV_T), set once a rendezvous request
    #: matched and the handle entered the progress engine's registry.
    sync_id: int | None = None
    #: World rank of the matched rendezvous sender (set when the
    #: OK_TO_SEND goes out) — lets the FT layer fail a receive whose
    #: data packet will never arrive because that sender died.
    rndv_source: int | None = None
    data: Any = None

    def __init__(self, context_id: int, source_pattern: int, tag_pattern: int,
                 capacity: int | None = None):
        # Flag state without Flag.__init__: ``name``, ``is_set`` and
        # ``value`` are class defaults, only the waiter list is per handle.
        self._waiters = []
        self.context_id = context_id
        self.source_pattern = source_pattern
        self.tag_pattern = tag_pattern
        #: Receive buffer capacity in bytes (None = unbounded object recv).
        self.capacity = capacity
        self.status = Status()

    @property
    def rank_dep(self) -> int | None:
        """The rank a task blocked on this receive waits on (wait-for
        graph metadata; unknown for ``MPI_ANY_SOURCE``)."""
        source = self.source_pattern
        return None if source == ANY_SOURCE else source

    def dep_describe(self) -> str:
        """What a task blocked on this receive waits for.

        The wait-for graph (:mod:`repro.check.waitgraph`) calls it: the
        text is formatted only if a diagnosis reads it.
        """
        source, tag = self.source_pattern, self.tag_pattern
        return (f"recv source={'ANY' if source == ANY_SOURCE else source}"
                f" tag={'ANY' if tag == ANY_TAG else tag} ctx={self.context_id}")

    def accepts(self, envelope: Envelope) -> bool:
        """Envelope matching against this handle's pattern."""
        return (envelope.context_id == self.context_id
                and envelope.matches(self.source_pattern, self.tag_pattern))

    def complete(self, envelope: Envelope, data: Any) -> None:
        """Fill in data/status and wake the waiter."""
        self.data = data
        status = self.status
        status.source = envelope.source
        status.source_world = envelope.source
        status.tag = envelope.tag
        status.count = envelope.size
        self.set()

    @property
    def completed(self) -> bool:
        return self.is_set

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RecvHandle ctx={self.context_id} src={self.source_pattern} "
                f"tag={self.tag_pattern} done={self.completed}>")


class SendHandle:
    """One in-flight send transaction (rendezvous bookkeeping).

    The sender blocks on :attr:`ack_flag` until the receiver's
    OK_TO_SEND arrives carrying the remote ``sync_id``; :attr:`flag`
    signals full local completion.  :meth:`notify_request_sent` runs
    right after the rendezvous *request* is out: at that point the
    message's matching slot at the receiver is secured, and the sender's
    ordering gate may admit the next send (MPI non-overtaking).
    """

    _ids = itertools.count(1)

    def __init__(self, envelope: Envelope, data: Any):
        self.send_id = next(SendHandle._ids)
        self.envelope = envelope
        self.data = data
        self.ack_flag = Flag(name="shandle-ack")
        self.flag = Flag(name="shandle-done")
        self.on_request_sent = None
        #: World rank this rendezvous targets — how the FT layer finds
        #: in-flight sends towards a dead peer.
        self.dest_world: int | None = None
        #: The device's data-phase choice, made in ``rndv_request`` and
        #: read back by ``rndv_data`` (opaque to the ADI).
        self.phase: Any = None
        #: Structured failure installed by the FT layer before it
        #: releases :attr:`ack_flag` with ``None`` (peer death / revoke).
        self.error: Exception | None = None

    def notify_request_sent(self) -> None:
        callback, self.on_request_sent = self.on_request_sent, None
        if callback is not None:
            callback()

    @property
    def completed(self) -> bool:
        return self.flag.is_set
