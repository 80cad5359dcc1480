"""Outgoing and incoming Madeleine messages (paper §3.2).

Cost model (see DESIGN.md §5):

- The first block of a message is covered by the protocol's per-message
  overheads.  Every *additional* block costs the driver's
  ``pack_op_cost`` on the sender and ``unpack_op_cost`` on the receiver —
  this is precisely the "additional packing operation" overhead the paper
  measures for ch_mad (21 us TCP / 6.5 us SCI / 4.5 us BIP per extra
  pack+unpack pair, §5.2–5.4).
- ``pack`` and ``unpack`` are plain calls that *accrue* their cost on the
  calling thread's CPU (``CPU.owe``), as Madeleine's CHEAPER modes defer
  work to ``end_packing``/``end_unpacking`` (§3.2); the thread *pays* in
  ``end_packing`` (with the NIC's send charge) and ``end_unpacking`` —
  before anything another thread or the network can observe.
- ``receive_EXPRESS`` blocks are aggregated into the message's express
  segment: both sides pay a memcpy of the block (EXPRESS trades copies
  for immediacy).  ``receive_CHEAPER`` blocks ride the driver's cheapest
  (zero-copy) path and cost no copies.
- ``send_SAFER`` forces a sender-side copy even for CHEAPER blocks (the
  library must detach the data from the application buffer).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, NamedTuple

from repro.errors import PackingError
from repro.madeleine.constants import (
    BLOCK_FRAMING_BYTES,
    MESSAGE_FRAMING_BYTES,
    ReceiveMode,
    SendMode,
)
from repro.sim.coroutines import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.channel import ChannelPort, Connection
    from repro.networks.fabric import Delivery


class PackedBlock(NamedTuple):
    """One ``mad_pack``'d block as it travels on the wire (immutable;
    a ``NamedTuple``, like every per-message wire record)."""

    data: Any
    size: int
    send_mode: SendMode
    receive_mode: ReceiveMode


class MadWireMessage(NamedTuple):
    """The payload handed to the network fabric for one Madeleine message."""

    channel_id: int
    source_rank: int
    dest_rank: int
    sequence: int
    blocks: tuple[PackedBlock, ...]

    @property
    def wire_bytes(self) -> int:
        """Total bytes serialized for this message (blocks + framing)."""
        total = MESSAGE_FRAMING_BYTES
        for block in self.blocks:
            total += block.size + BLOCK_FRAMING_BYTES
        return total


class OutgoingMessage:
    """Build-side state machine: ``pack*`` then ``end_packing``."""

    __slots__ = ("connection", "_port", "_blocks", "_finalized")

    def __init__(self, connection: "Connection"):
        self.connection = connection
        self._port = connection.port
        self._blocks: list[PackedBlock] = []
        self._finalized = False

    def pack(self, data: Any, size: int, send_mode: SendMode,
             receive_mode: ReceiveMode) -> None:
        """Append one block to the message (accrues pack costs)."""
        if self._finalized:
            raise PackingError("pack after end_packing")
        if size < 0:
            raise PackingError(f"negative block size {size}")
        if not isinstance(send_mode, SendMode) or not isinstance(receive_mode, ReceiveMode):
            raise PackingError("pack requires a SendMode and a ReceiveMode flag")
        port, blocks = self._port, self._blocks
        # The first block is covered by the message overheads.
        cost = port.params.pack_op_cost if blocks else 0
        if receive_mode is ReceiveMode.EXPRESS or send_mode is SendMode.SAFER:
            cost += port.memory.copy_cost(size)
        if cost:
            port.cpu.owe(cost)
        blocks.append(PackedBlock(data, size, send_mode, receive_mode))

    def end_packing(self) -> Generator:
        """Finalize; returns the transmitting generator (``yield from`` it:
        it returns when the send completes locally).

        Pays what the ``pack`` calls accrued, with the send's own charge.
        """
        if self._finalized:
            raise PackingError("end_packing called twice")
        if not self._blocks:
            raise PackingError("empty message: pack at least one block")
        self._finalized = True
        return self.connection._transmit(tuple(self._blocks))

    @property
    def block_count(self) -> int:
        return len(self._blocks)


class IncomingMessage:
    """Extract-side state machine: ``unpack*`` then ``end_unpacking``.

    Unpack calls must mirror the pack sequence exactly (size and both
    mode flags), as in real Madeleine where a mismatch corrupts the
    stream.  We detect and raise instead.
    """

    __slots__ = ("port", "wire", "delivery", "_blocks", "_cursor",
                 "_finalized")

    def __init__(self, port: "ChannelPort", wire: MadWireMessage,
                 delivery: "Delivery"):
        self.port = port
        self.wire = wire
        self.delivery = delivery
        self._blocks = wire.blocks
        self._cursor = 0
        self._finalized = False

    @property
    def source_rank(self) -> int:
        """Rank (process id) of the sender — identifies the connection."""
        return self.wire.source_rank

    def unpack(self, size: int, send_mode: SendMode,
               receive_mode: ReceiveMode) -> Any:
        """Extract the next block (accrues unpack costs); returns its data."""
        if self._finalized:
            raise PackingError("unpack after end_unpacking")
        blocks, cursor = self._blocks, self._cursor
        if cursor >= len(blocks):
            raise PackingError(
                f"unpack #{cursor + 1} but message has only "
                f"{len(blocks)} blocks"
            )
        block = blocks[cursor]
        if block.size != size:
            raise PackingError(
                f"unpack size {size} != packed size {block.size} "
                f"(block {cursor})"
            )
        if block.send_mode is not send_mode or block.receive_mode is not receive_mode:
            raise PackingError(
                f"unpack modes ({send_mode}, {receive_mode}) do not match "
                f"packed modes ({block.send_mode}, {block.receive_mode})"
            )
        port = self.port
        cost = port.params.unpack_op_cost if cursor else 0
        if receive_mode is ReceiveMode.EXPRESS:
            cost += port.memory.copy_cost(size)
        if cost:
            port.cpu.owe(cost)
        self._cursor = cursor + 1
        return block.data

    def end_unpacking(self) -> Generator:
        """Finish extraction: all blocks must have been consumed, and the
        thread pays here what receiving and unpacking them accrued."""
        if self._finalized:
            raise PackingError("end_unpacking called twice")
        if self._cursor != len(self._blocks):
            raise PackingError(
                f"end_unpacking with {len(self._blocks) - self._cursor} "
                "blocks not yet unpacked"
            )
        self._finalized = True
        yield charge(0)  # one event for all that accrued; none if nothing did

    @property
    def remaining_blocks(self) -> int:
        return len(self._blocks) - self._cursor

    def next_block_size(self) -> int:
        """Wire size of the next block to unpack.

        Madeleine frames each block with a length descriptor, so the
        receiving side may size a self-describing header before
        extracting it (ch_mad's type-field dispatch relies on this).
        """
        if self._cursor >= len(self._blocks):
            raise PackingError("no blocks left to size")
        return self._blocks[self._cursor].size
