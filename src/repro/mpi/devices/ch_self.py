"""ch_self — the loop-back device (paper §2.3, §4.1).

Self-messages never leave the process: one memcpy moves the payload from
the send buffer to the receive buffer (or to the unexpected buffer, plus
a second copy on the eventual match).  Everything is "eager" — the
threshold is unbounded, there is nothing to rendezvous with.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.adi.rhandle import SendHandle
from repro.sim.coroutines import charge
from repro.units import us

#: Fixed software cost of the loop-back path (queue ops, request setup).
SELF_OVERHEAD = us(0.4)


class ChSelfDevice(Device):
    """Intra-process device."""

    name = "ch_self"

    def __init__(self, progress: ProgressEngine):
        self.progress = progress
        self.eager_threshold = 2**62  # everything is eager (by size)

    def send_eager(self, dest_world: int, envelope: Envelope,
                   data: Any) -> Generator:
        yield charge(SELF_OVERHEAD)
        # The single self-copy; deliver_eager is told not to charge again.
        yield charge(self.progress.memory.copy_cost(envelope.size))
        yield from self.progress.deliver_eager(envelope, data,
                                               charge_copy=False)

    # Rendezvous is never selected by size (the threshold is unbounded),
    # but MPI_Ssend forces it: a synchronous self-send must block until
    # the matching receive is posted.  The "packets" are direct calls
    # into our own progress engine.
    def rndv_request(self, dest_world: int, shandle: SendHandle) -> Generator:
        yield charge(SELF_OVERHEAD)
        token = RndvToken(self, dest_world, shandle.send_id)
        yield from self.progress.deliver_rndv_request(shandle.envelope, token)

    def rndv_data(self, dest_world: int, shandle: SendHandle,
                  sync_id: int) -> Generator:
        yield charge(self.progress.memory.copy_cost(shandle.envelope.size))
        yield from self.progress.deliver_rndv_data(
            sync_id, shandle.envelope, shandle.data
        )

    def send_rndv_ack(self, token: RndvToken, sync_id: int) -> Generator:
        self.progress.deliver_rndv_ack(token.send_id, sync_id)
        return
        yield  # pragma: no cover - generator marker
