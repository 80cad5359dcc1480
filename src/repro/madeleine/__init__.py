"""Madeleine II — the multi-protocol communication library (paper §3).

Madeleine provides RPC-flavoured message passing with *incremental message
building*: a message is a sequence of packed blocks, each tagged with a
pair of semantics flags (``send_*``, ``receive_*``) that tell the library
how much freedom it has to optimize the transfer:

- ``receive_EXPRESS`` — the block must be available on the receiving side
  immediately after the matching ``unpack`` (used for headers whose
  content controls subsequent unpacking);
- ``receive_CHEAPER`` — the library may defer/optimize; contents are only
  guaranteed after ``end_unpacking`` (used for bulk payloads).

Communication happens over *channels* (closed worlds bound to one network
protocol, "much like an MPI communicator") holding point-to-point
*connections* with per-connection in-order delivery.

This implementation flushes a message at ``end_packing`` — behaviourally
equivalent for the paper's usage (ch_mad builds messages of one or two
blocks and finalizes immediately) and documented in DESIGN.md.
"""

from repro.madeleine.constants import (
    RECEIVE_CHEAPER,
    RECEIVE_EXPRESS,
    SEND_CHEAPER,
    SEND_LATER,
    SEND_SAFER,
    ReceiveMode,
    SendMode,
)
from repro.madeleine.channel import (
    Channel,
    ChannelPort,
    Connection,
    DeadChannelNotice,
)
from repro.madeleine.message import IncomingMessage, OutgoingMessage, PackedBlock
from repro.madeleine.session import MadProcess, MadeleineSession
from repro.madeleine.interface import (
    mad_begin_packing,
    mad_begin_unpacking,
    mad_end_packing,
    mad_end_unpacking,
    mad_pack,
    mad_unpack,
)

__all__ = [
    "Channel",
    "ChannelPort",
    "Connection",
    "DeadChannelNotice",
    "IncomingMessage",
    "MadProcess",
    "MadeleineSession",
    "OutgoingMessage",
    "PackedBlock",
    "RECEIVE_CHEAPER",
    "RECEIVE_EXPRESS",
    "ReceiveMode",
    "SEND_CHEAPER",
    "SEND_LATER",
    "SEND_SAFER",
    "SendMode",
    "mad_begin_packing",
    "mad_begin_unpacking",
    "mad_end_packing",
    "mad_end_unpacking",
    "mad_pack",
    "mad_unpack",
]
