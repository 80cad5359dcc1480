"""Envelopes and ADI packet headers.

The :class:`Envelope` is the matching key of every MPI message:
(context id, source world rank, tag) plus the payload size for
truncation checks.  Sizes below are the modelled byte weights of the ADI
header structures (MPID_PKT_*), used so control packets have realistic
wire footprints.

Both records are immutable, hashable ``NamedTuple`` classes rather than
frozen dataclasses: one is built per message, and a frozen dataclass
pays an ``object.__setattr__`` per field in ``__init__``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG


class Envelope(NamedTuple):
    """The matching envelope carried by every data/request packet.

    ``byte_order`` is the sender's native representation — the ADI's
    "heterogeneity management" (Fig. 1) converts on the receiving side
    when it differs from the local order.  It never participates in
    matching.
    """

    context_id: int
    source: int      # world rank of the sender
    tag: int
    size: int        # payload bytes
    byte_order: str = "little"

    def matches(self, source_pattern: int, tag_pattern: int) -> bool:
        """Does this envelope satisfy a receive pattern (wildcards ok)?"""
        if source_pattern != ANY_SOURCE and source_pattern != self.source:
            return False
        if tag_pattern != ANY_TAG and tag_pattern != self.tag:
            return False
        return True


class RndvToken(NamedTuple):
    """A rendezvous request as the receiving process remembers it: whom
    to acknowledge, through which device.

    ``phase`` is opaque to the ADI: the device puts there whatever its
    ``send_rndv_ack`` needs to prepare for the data phase the sender
    chose (ch_mad: the envelope of a body that will arrive by RDMA
    write; ``None`` everywhere else).
    """

    device: Any
    requester_world: int
    send_id: int
    phase: Any = None


#: Modelled sizes (bytes) of the ADI packet structures that ride inside
#: device headers.  MPID_PKT_HEAD_T carries the envelope; the others add
#: their specific fields (paper Fig. 5).
PKT_HEAD_BYTES = 24          # MPID_PKT_HEAD_T: envelope + mode bits
PKT_REQUEST_SEND_BYTES = 32  # MPID_PKT_REQUEST_SEND_T: envelope + send id
PKT_OK_TO_SEND_BYTES = 16    # MPID_PKT_OK_TO_SEND_T: send id + sync_address
SYNC_ADDRESS_BYTES = 8       # MPID_RNDV_T handle on the wire
TYPE_FIELD_BYTES = 4         # the leading integer type field
