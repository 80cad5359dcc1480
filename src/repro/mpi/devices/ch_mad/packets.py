"""ch_mad packet structures (paper Figure 5).

Every ch_mad message is one Madeleine message of one or two blocks:

- the **header** (always present, sent ``receive_EXPRESS``): an integer
  type field followed by a buffer whose content depends on the type;
- the **body** (only for user/MPI data: MAD_SHORT_PKT and MAD_RNDV_PKT,
  sent ``receive_CHEAPER``): the user payload itself.

"The number of packets has to be kept low to ensure a high level of
performance, since each pack operation induces a significant overhead"
(§4.2.1) — which is exactly why control messages have no body and why a
zero-byte MPI message skips the body block entirely (the source of the
Table 2 gap between 0-byte and 4-byte latency).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.mpi.adi.packets import (
    Envelope,
    PKT_HEAD_BYTES,
    PKT_OK_TO_SEND_BYTES,
    PKT_REQUEST_SEND_BYTES,
    SYNC_ADDRESS_BYTES,
    TYPE_FIELD_BYTES,
)


class MadPktType(enum.IntEnum):
    """The header type field."""

    MAD_SHORT_PKT = 1     # eager data message
    MAD_RNDV_PKT = 2      # rendezvous data message
    MAD_REQUEST_PKT = 3   # rendezvous request
    MAD_SENDOK_PKT = 4    # rendezvous acknowledgement
    MAD_TERM_PKT = 5      # program termination
    MAD_FWD_PKT = 6       # gateway-forwarded packet (extension, §6)
    MAD_HB_PKT = 7        # liveness heartbeat (fault tolerance extension)
    # Rendezvous-over-RDMA (IB extension, after Liu et al.): the request
    # and ack are ordinary channel control packets; the body travels as
    # one RDMA write that never enters the packet state machine.
    MAD_RDMA_REQ_PKT = 8  # rendezvous request, RDMA body to follow
    MAD_RDMA_ACK_PKT = 9  # receive buffer registered, RDMA write may go
    MAD_RDMA_DATA_PKT = 10  # synthetic: tags the RDMA-written body for
    #                         tracing/checking; never on the channel wire


#: Extra routing fields carried by a forwarded packet's header
#: (final destination, origin, hop count).
FWD_ROUTING_BYTES = 12


#: The header block has a fixed wire size: the type field plus the
#: largest of the per-type buffers, so the receiving side can always
#: unpack it before knowing the type.
CH_MAD_HEADER_BYTES = TYPE_FIELD_BYTES + max(
    PKT_HEAD_BYTES,                                # MAD_SHORT_PKT
    SYNC_ADDRESS_BYTES + PKT_HEAD_BYTES,           # MAD_RNDV_PKT
    PKT_REQUEST_SEND_BYTES,                        # MAD_REQUEST_PKT
    PKT_OK_TO_SEND_BYTES,                          # MAD_SENDOK_PKT
    0,                                             # MAD_TERM_PKT (empty)
    # MAD_RDMA_REQ_PKT reuses the request layout, MAD_RDMA_ACK_PKT the
    # sendok layout — neither grows the header.
)


class ChMadHeader(NamedTuple):
    """The EXPRESS header block of every ch_mad message (immutable; a
    ``NamedTuple`` because one is built per packet).

    Field usage by type (Figure 5):

    ========================  ==========================================
    MAD_SHORT_PKT             ``envelope`` (the split MPID_PKT_SHORT_T
                              head; the body carries the user buffer)
    MAD_RNDV_PKT              ``sync_id`` + ``envelope``
    MAD_REQUEST_PKT           ``envelope`` + ``send_id``
    MAD_SENDOK_PKT            ``send_id`` + ``sync_id``
    MAD_TERM_PKT              (empty)
    ========================  ==========================================
    """

    pkt_type: MadPktType
    envelope: Envelope | None = None
    send_id: int = 0
    sync_id: int = 0
