"""The ADI's request queues (Fig. 1: "request queues mgmt").

Two queues per process, shared by every device:

- :class:`PostedQueue` — receives posted before their message arrived;
- :class:`UnexpectedQueue` — arrivals with no matching posted receive:
  buffered eager payloads or pending rendezvous requests.

Both honour MPI's matching order: the *first* entry (in post/arrival
order) that matches wins, with ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``
wildcards on the receive side only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.rhandle import RecvHandle


class PostedQueue:
    """Receives waiting for their message."""

    def __init__(self) -> None:
        self._entries: list[RecvHandle] = []

    def post(self, handle: RecvHandle) -> None:
        self._entries.append(handle)

    def match(self, envelope: Envelope) -> RecvHandle | None:
        """Find-and-remove the first posted receive matching ``envelope``."""
        for i, handle in enumerate(self._entries):
            if handle.accepts(envelope):
                del self._entries[i]
                return handle
        return None

    def remove(self, handle: RecvHandle) -> bool:
        """Withdraw a posted receive (cancellation).  True if it was queued."""
        try:
            self._entries.remove(handle)
            return True
        except ValueError:
            return False

    def take_matching(self, predicate) -> list[RecvHandle]:
        """Remove and return every posted receive satisfying ``predicate``.

        Used by the FT layer to pull out receives doomed by a peer death
        or a communicator revocation so they can be completed with a
        structured error instead of hanging forever.
        """
        taken = [h for h in self._entries if predicate(h)]
        if taken:
            self._entries = [h for h in self._entries if not predicate(h)]
        return taken

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class UnexpectedKind(enum.Enum):
    """What an unexpected entry holds."""

    EAGER = "eager"              # buffered payload, awaiting a recv
    RNDV_REQUEST = "rndv-request"  # sender is waiting for OK_TO_SEND


@dataclass
class UnexpectedEntry:
    """One buffered arrival."""

    envelope: Envelope
    kind: UnexpectedKind
    #: Buffered payload for EAGER entries (already copied once).
    data: Any = None
    #: Device-specific token for RNDV_REQUEST entries: whatever the device
    #: needs to send the acknowledgement back (device, sender, send_id...).
    rndv_token: Any = None


class UnexpectedQueue:
    """Arrivals that beat their receive."""

    def __init__(self) -> None:
        self._entries: list[UnexpectedEntry] = []
        #: Total bytes currently buffered in EAGER entries (diagnostic —
        #: a real MPICH would bound this).
        self.buffered_bytes = 0

    def add(self, entry: UnexpectedEntry) -> None:
        self._entries.append(entry)
        if entry.kind is UnexpectedKind.EAGER:
            self.buffered_bytes += entry.envelope.size

    def match(self, context_id: int, source_pattern: int,
              tag_pattern: int) -> UnexpectedEntry | None:
        """Find-and-remove the first entry matching a receive pattern."""
        for i, entry in enumerate(self._entries):
            env = entry.envelope
            if env.context_id == context_id and env.matches(source_pattern,
                                                            tag_pattern):
                del self._entries[i]
                if entry.kind is UnexpectedKind.EAGER:
                    self.buffered_bytes -= env.size
                return entry
        return None

    def purge(self, predicate) -> list[UnexpectedEntry]:
        """Remove and return every buffered arrival satisfying ``predicate``.

        FT path: arrivals from a dead rank (or on a revoked context) must
        never match a later receive; purged EAGER entries release their
        buffered bytes.
        """
        purged = [e for e in self._entries if predicate(e)]
        if purged:
            self._entries = [e for e in self._entries if not predicate(e)]
            for entry in purged:
                if entry.kind is UnexpectedKind.EAGER:
                    self.buffered_bytes -= entry.envelope.size
        return purged

    def peek(self, context_id: int, source_pattern: int,
             tag_pattern: int) -> UnexpectedEntry | None:
        """Like :meth:`match` but non-destructive (MPI_Probe)."""
        for entry in self._entries:
            env = entry.envelope
            if env.context_id == context_id and env.matches(source_pattern,
                                                            tag_pattern):
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)
