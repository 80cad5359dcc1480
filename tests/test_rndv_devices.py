"""One rendezvous handshake, through every device.

The sender half of REQUEST -> ack -> data lives once, in the ADI
(``Device.send_rndv``); each device supplies only ``rndv_request``,
``rndv_data`` and ``send_rndv_ack``.  Three things are pinned here:

- the virtual times of the device paths no other golden names (ch_self,
  smp_plug, ch_p4, ch_mad through a forwarding gateway) against
  ``tests/goldens/rndv_devices.json``, written by
  ``python tests/test_rndv_devices.py --write`` **on the parent commit
  (805659e, PR 13), where each device ran its own copy of the
  handshake**, through ``MPIWorld.run`` only;
- what the shared template gives every device and only ch_mad had: a
  crossed ``ssend`` is diagnosed as a rank cycle naming the send id;
- the FT abort, once per FT-capable device: the peer dies between
  request and ack, the send raises, the one ``pending_sends`` table is
  empty, and a straggler ack is counted rather than fatal.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, EngineConfig, MPIWorld, NodeSpec
from repro.errors import DeadlockError, MPIProcFailedError
from repro.faults import FaultPlan
from repro.mpi.devices.ch_mad.packets import ChMadHeader, MadPktType
from repro.mpi.devices.ch_mad.polling import dispatch_local
from repro.mpi.devices.smp_plug import SmpKind, SmpPacket
from repro.sim.coroutines import now, sleep
from repro.units import us

GOLDEN = Path(__file__).parent / "goldens" / "rndv_devices.json"


def _two_nodes(network: str, device: str = "ch_mad") -> ClusterConfig:
    return ClusterConfig(
        nodes=[NodeSpec(f"n{i}", networks=(network,)) for i in range(2)],
        device=device)


def _one_smp_node() -> ClusterConfig:
    return ClusterConfig(nodes=[NodeSpec("smp", networks=("sisci",),
                                         processes=2)])


def _islands() -> ClusterConfig:
    """SCI island <-gateway-> Myrinet island: rank 0 reaches rank 2 only
    through rank 1's relay (``send_wrapped``)."""
    return ClusterConfig(nodes=[
        NodeSpec("sci0", networks=("sisci",)),
        NodeSpec("gw", networks=("sisci", "bip")),
        NodeSpec("myri0", networks=("bip",)),
    ], forwarding=True)


#: label -> (config factory, peer of rank 0, size, forced by ssend).
CASES = {
    "ch_self/ssend-4": (_one_smp_node, 0, 4, True),
    "ch_self/ssend-64k": (_one_smp_node, 0, 64 * 1024, True),
    "smp_plug/16k+1": (_one_smp_node, 1, 16 * 1024 + 1, False),
    "smp_plug/1m": (_one_smp_node, 1, 1 << 20, False),
    "ch_p4/64k+1": (lambda: _two_nodes("tcp", "ch_p4"), 1,
                    64 * 1024 + 1, False),
    "ch_p4/1m": (lambda: _two_nodes("tcp", "ch_p4"), 1, 1 << 20, False),
    "ch_mad-gateway/ssend-4": (_islands, 2, 4, True),
    "ch_mad-gateway/1m": (_islands, 2, 1 << 20, False),
}


def _pingpong(peer: int, size: int, synchronous: bool, round_trips: int = 2):
    """Rank 0 <-> ``peer``; a self ping-pong is receive-first, then
    send-first (request matched on arrival, then found unexpected)."""

    def program(mpi):
        comm = mpi.comm_world
        send = comm.ssend if synchronous else comm.send
        took = []
        if comm.rank == 0 and peer == 0:
            start = yield now()
            request = comm.irecv(source=0, tag=5, size=size)
            yield from send(b"x", dest=0, tag=5, size=size)
            yield from request.wait()
            took.append((yield now()) - start)
            start = yield now()
            request = comm.issend(b"x", dest=0, tag=6, size=size)
            yield from comm.recv(source=0, tag=6, size=size)
            yield from request.wait()
            took.append((yield now()) - start)
        elif comm.rank == 0:
            for _ in range(round_trips):
                start = yield now()
                yield from send(b"x", dest=peer, tag=5, size=size)
                yield from comm.recv(source=peer, tag=5, size=size)
                took.append((yield now()) - start)
        elif comm.rank == peer:
            for _ in range(round_trips):
                yield from comm.recv(source=0, tag=5, size=size)
                yield from send(b"x", dest=0, tag=5, size=size)
        return took, (yield now())

    return program


def point(label: str) -> dict:
    """One world, observed (JSON-shaped)."""
    make_config, peer, size, synchronous = CASES[label]
    world = MPIWorld(make_config())
    results = world.run(_pingpong(peer, size, synchronous))
    took = results[0][0]
    return {
        "one_way_ns": min(took) // 2,
        "round_trips_ns": took,
        "busy_ns": [env.process.runtime.cpu.busy_time
                    for env in world.envs],
        "last_main_ns": max(end for _, end in results),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", CASES)
def test_device_rendezvous_matches_parent(golden, label):
    assert point(label) == golden[label]


# -- deadlock diagnosis: the template annotates the ack wait once ------------


CROSSED = {
    "smp_plug": _one_smp_node,
    "ch_p4": lambda: _two_nodes("tcp", "ch_p4"),
    "ch_mad-packetized": lambda: _two_nodes("sisci"),
    "ch_mad-rdma": lambda: _two_nodes("ib"),  # ClusterConfig.rdma is on
}


@pytest.mark.parametrize("label", CROSSED)
def test_crossed_ssend_is_diagnosed_as_a_cycle(label):
    """Both ranks ssend first: each waits for an ack only the other's
    never-posted receive would release.  No ``max_events``: ch_p4's
    idle tcp pollers do not hide the hang either."""

    def program(mpi):
        comm = mpi.comm_world
        peer = 1 - comm.rank
        yield from comm.ssend(b"x", dest=peer, tag=1, size=100_000)
        yield from comm.recv(source=peer, tag=1)

    with pytest.raises(DeadlockError) as excinfo:
        MPIWorld(CROSSED[label]()).run(program)
    error = excinfo.value
    assert error.cycle == [0, 1]
    text = str(error)
    assert "wait-for cycle: rank 0 -> rank 1 -> rank 0" in text
    for rank in (0, 1):
        assert re.search(
            rf"rank {rank} waits on rank {1 - rank}: rendezvous ack from "
            rf"rank {1 - rank} \(send_id=\d+\)", text), text


# -- FT: the peer dies between request and ack -------------------------------


def _late_ack_smp(mpi, send_id: int) -> None:
    mpi.smp_device.fifo.post(SmpPacket(SmpKind.RNDV_ACK, 1,
                                       send_id=send_id, sync_id=7))


def _late_ack_ch_mad(mpi, send_id: int) -> None:
    header = ChMadHeader(MadPktType.MAD_SENDOK_PKT, send_id=send_id,
                         sync_id=7)
    mpi.process.runtime.spawn_temporary(
        dispatch_local(mpi.inter_device, header, None), name="late-ack")


FT_DEVICES = {
    "smp_plug": (_one_smp_node, _late_ack_smp),
    "ch_mad": (lambda: _two_nodes("sisci"), _late_ack_ch_mad),
}


@pytest.mark.parametrize("label", FT_DEVICES)
def test_peer_death_between_request_and_ack(label):
    make_config, late_ack = FT_DEVICES[label]
    config = make_config()
    config.fault_plan = FaultPlan.node_death(rank=1, at=us(300))
    # Checker off: its shadow of the handshake forgets an aborted send,
    # so it would (rightly) call the forged ack below a forgery.
    world = MPIWorld(config, engine_config=EngineConfig(
        seed=1, instrumentation=True))

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 1:
            yield sleep(us(10_000))  # never posts the receive; dies first
            return None
        request = comm.issend(b"x", dest=1, tag=1, size=100_000)
        yield sleep(us(200))  # the request is out, the ack never comes
        (send_id,) = mpi.progress.pending_sends
        with pytest.raises(MPIProcFailedError) as excinfo:
            yield from request.wait()
        pending = dict(mpi.progress.pending_sends)
        # The ack of a peer that was merely slow, after the abort.
        late_ack(mpi, send_id)
        yield sleep(us(50))
        return excinfo.value.failed_rank, pending

    results = world.run(program)
    assert results[0] == (1, {})
    metrics = world.engine.instruments.metrics
    assert metrics.total("ft.stale_acks") == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_rndv_devices.py --write")
    record = {"_header": (
        "Written by `python tests/test_rndv_devices.py --write` on the "
        "PARENT commit 805659e (PR 13), where ch_self, smp_plug, ch_p4 "
        "and ch_mad each ran their own copy of the rendezvous handshake; "
        "tests/test_rndv_devices.py recomputes these through the one "
        "ADI state machine and compares exactly.  Regenerate only from "
        "a commit whose virtual times are known good.")}
    record.update({label: point(label) for label in CASES})
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
