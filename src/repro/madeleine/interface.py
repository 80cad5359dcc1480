"""Paper-style procedural wrappers around the Madeleine object API.

These mirror the C interface of Figure 2 so that code transcribed from
the paper reads one-to-one::

    connection = mad_begin_packing(channel_port, remote)
    mad_pack(connection, size_blob, 4, SEND_CHEAPER, RECEIVE_EXPRESS)
    mad_pack(connection, array, size, SEND_CHEAPER, RECEIVE_CHEAPER)
    yield from mad_end_packing(connection)

    connection = yield from mad_begin_unpacking(channel_port)
    size_blob = mad_unpack(connection, 4, SEND_CHEAPER, RECEIVE_EXPRESS)
    array = mad_unpack(connection, size, SEND_CHEAPER, RECEIVE_CHEAPER)
    yield from mad_end_unpacking(connection)

``mad_pack``/``mad_unpack`` are plain calls, as in C: they accrue their
cost, and the calling thread pays it in the matching ``mad_end_*``.

The "connection" returned by begin_packing/begin_unpacking is actually the
in-flight message object, exactly as the C API's connection handle doubles
as the current-message cursor.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.madeleine.channel import ChannelPort
from repro.madeleine.constants import ReceiveMode, SendMode
from repro.madeleine.message import IncomingMessage, OutgoingMessage


def mad_begin_packing(port: ChannelPort, remote_rank: int) -> OutgoingMessage:
    """Start a message on ``port`` towards ``remote_rank``."""
    return port.begin_packing(remote_rank)


def mad_pack(message: OutgoingMessage, data: Any, size: int,
             send_mode: SendMode, receive_mode: ReceiveMode) -> None:
    """Append a block to an outgoing message."""
    message.pack(data, size, send_mode, receive_mode)


def mad_end_packing(message: OutgoingMessage) -> Generator:
    """Finalize and transmit an outgoing message."""
    yield from message.end_packing()


def mad_begin_unpacking(port: ChannelPort) -> Generator:
    """Wait for and open the next incoming message on ``port``."""
    message = yield from port.begin_unpacking()
    return message


def mad_unpack(message: IncomingMessage, size: int, send_mode: SendMode,
               receive_mode: ReceiveMode) -> Any:
    """Extract the next block; returns its data."""
    return message.unpack(size, send_mode, receive_mode)


def mad_end_unpacking(message: IncomingMessage) -> Generator:
    """Finish extracting an incoming message."""
    yield from message.end_unpacking()
