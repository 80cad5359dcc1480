"""Raw Madeleine ping-pong (the paper's ``raw_Madeleine`` curves).

One message = one packed block with ``send_CHEAPER``/``receive_CHEAPER``
semantics — the cheapest possible path, as in the paper's raw
measurements ("only one pack ... or unpack operation is required and
used", §5.1).
"""

from __future__ import annotations

from repro.bench.pingpong import PingPongResult, summarize_roundtrips
from repro.madeleine import (
    MadeleineSession,
    RECEIVE_CHEAPER,
    SEND_CHEAPER,
)
from repro.networks.params import ProtocolParams
from repro.sim.coroutines import now


def raw_madeleine_pingpong(protocol: str, size: int, reps: int = 5,
                           warmup: int = 2,
                           params: ProtocolParams | None = None) -> PingPongResult:
    """Measure one-way latency/bandwidth for ``size``-byte messages.

    Builds a fresh two-process session on one fabric of ``protocol`` and
    runs ``warmup + reps`` round-trips; reports the minimum round-trip / 2
    (mpptest convention).
    """
    session = MadeleineSession()
    session.add_fabric(protocol, params=params)
    p0 = session.add_process(networks=(protocol,))
    p1 = session.add_process(networks=(protocol,))
    channel = session.new_channel("bench", protocol)
    port0, port1 = p0.port(channel), p1.port(channel)
    rounds = warmup + reps
    payload = b"\x00" * min(size, 1)  # placeholder object; size drives costs
    roundtrips: list[int] = []

    def pinger():
        for _ in range(rounds):
            start = yield now()
            msg = port0.begin_packing(1)
            msg.pack(payload, size, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()
            incoming = yield from port0.begin_unpacking()
            incoming.unpack(size, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from incoming.end_unpacking()
            end = yield now()
            roundtrips.append(end - start)

    def ponger():
        for _ in range(rounds):
            incoming = yield from port1.begin_unpacking()
            incoming.unpack(size, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from incoming.end_unpacking()
            msg = port1.begin_packing(0)
            msg.pack(payload, size, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()

    p0.runtime.spawn(pinger, name="pinger")
    p1.runtime.spawn(ponger, name="ponger")
    session.run()
    return summarize_roundtrips(
        label=f"raw_madeleine/{protocol}", size=size,
        roundtrips=roundtrips[warmup:],
    )
