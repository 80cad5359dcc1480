"""Multi-rail striping over several Madeleine channels (paper §3.1).

Madeleine "is able to ... manage multiple network adapters (NIC) for
each of these protocols", and "it is of course possible to have several
channels related to the same protocol and/or the same network adapter".
This module exploits that: a large block is split across several
channels (one per rail) and reassembled on the receiving side, giving
aggregate bandwidth close to the sum of the rails for DMA networks.

Note the in-order caveat the paper states (§3.1): ordering is only
guaranteed *within* a channel, so the stripes carry explicit indices and
the receiver reassembles by index, not by arrival order.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.errors import FailoverExhaustedError, MadeleineError
from repro.madeleine.channel import ChannelPort
from repro.madeleine.constants import (
    RECEIVE_CHEAPER,
    RECEIVE_EXPRESS,
    SEND_CHEAPER,
)
from repro.madeleine.channel import DeadChannelNotice
from repro.sim.coroutines import wait
from repro.sim.sync import MailboxSelect

#: Per-stripe header: transfer seq + stripe index + count + payload length.
STRIPE_HEADER_BYTES = 16


def stripe_sizes(total: int, rails: int) -> list[int]:
    """Split ``total`` bytes into ``rails`` near-equal positive stripes."""
    if rails < 1:
        raise MadeleineError("need at least one rail")
    if total < 0:
        raise MadeleineError("negative stripe total")
    base, rem = divmod(total, rails)
    return [base + (1 if i < rem else 0) for i in range(rails)]


def striped_send(ports: Sequence[ChannelPort], remote_rank: int, data: Any,
                 size: int) -> Generator:
    """Send ``size`` bytes to ``remote_rank`` striped across ``ports``.

    The payload object rides the first stripe; the other stripes carry
    only their byte counts (the simulator moves costs, not bits).  Rails
    whose stripe would be empty are skipped, and so are dead rails — the
    transfer degrades onto the survivors (down to a single rail).
    """
    if not ports:
        raise MadeleineError("striped_send needs at least one port")
    live = [p for p in ports if not p.channel.dead]
    if not live:
        raise FailoverExhaustedError(
            f"all {len(ports)} striping rails are dead"
        )
    # Per-destination transfer sequence: stripes of consecutive transfers
    # can overtake each other *across* rails (a tiny stripe on an idle
    # rail beats a huge one on a busy rail), so the receiver needs to
    # know which transfer a stripe belongs to.
    process = live[0].process
    transfer = process._stripe_tx_seq.get(remote_rank, 0)
    process._stripe_tx_seq[remote_rank] = transfer + 1
    sizes = stripe_sizes(size, len(live))
    nstripes = sum(1 for s in sizes if s > 0) or 1
    for index, (port, stripe) in enumerate(zip(live, sizes)):
        if stripe == 0 and index > 0:
            continue
        message = port.begin_packing(remote_rank)
        message.pack((transfer, index, nstripes, stripe),
                     STRIPE_HEADER_BYTES, SEND_CHEAPER, RECEIVE_EXPRESS)
        payload = data if index == 0 else None
        message.pack(payload, stripe, SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()


def striped_recv(ports: Sequence[ChannelPort], size: int) -> Generator:
    """Receive one striped transfer; evaluates to the payload object.

    Waits for every expected stripe across the rails; stripes may land
    in any order (channels are independent worlds) and — because a rail
    can die and shrink the sender's stripe set mid-stream — the receiver
    cannot predict which rail carries which stripe.  It therefore selects
    over *all* rails at once and trusts the per-stripe indices for
    reassembly.
    """
    if not ports:
        raise MadeleineError("striped_recv needs at least one port")
    by_mailbox = {port.incoming: port for port in ports}
    process = ports[0].process
    stash = process._stripe_stash       # (src, transfer) -> stripe list
    rx_next = process._stripe_rx_seq    # src -> next expected transfer
    current: tuple[int, int] | None = None
    expected = None
    received = 0
    payload = None
    while True:
        stripe_info = None
        if current is None:
            # A whole earlier transfer may already sit in the stash
            # (its stripes overtook the previous transfer's tail).
            for key in sorted(stash):
                src, transfer = key
                if transfer == rx_next.get(src, 0) and stash[key]:
                    current = key
                    break
        if current is not None and stash.get(current):
            stripe_info = stash[current].pop(0)
        if stripe_info is None:
            mailbox, delivery = yield wait(MailboxSelect(by_mailbox))
            if isinstance(delivery, DeadChannelNotice):
                continue  # the rail died; survivors carry the rest
            port = by_mailbox[mailbox]
            # The application thread performed the detection itself (raw
            # Madeleine usage) — accrue the per-poll cost begin_unpacking
            # would have; end_unpacking pays.
            if port.params.poll_cost:
                port.cpu.owe(port.params.poll_cost)
            message = port.open_delivery(delivery)
            transfer, index, nstripes, stripe = message.unpack(
                STRIPE_HEADER_BYTES, SEND_CHEAPER, RECEIVE_EXPRESS)
            body = message.unpack(stripe, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from message.end_unpacking()
            key = (message.source_rank, transfer)
            if current is None and transfer == rx_next.get(
                    message.source_rank, 0):
                current = key
            if key != current:
                stash.setdefault(key, []).append((index, nstripes, body))
                continue
            stripe_info = (index, nstripes, body)
        index, nstripes, body = stripe_info
        if expected is None:
            expected = nstripes
        elif nstripes != expected:
            raise MadeleineError(
                f"stripe count mismatch: {nstripes} != {expected}"
            )
        if index == 0:
            payload = body
        received += 1
        if received >= expected:
            src, transfer = current
            rx_next[src] = transfer + 1
            if current in stash and not stash[current]:
                del stash[current]
            return payload
