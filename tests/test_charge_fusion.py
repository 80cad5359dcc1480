"""Charge fusion is exact: the parent commit's numbers, recomputed.

A layer of the stack *accrues* its CPU cost with ``cpu.owe(ns)`` and the
CPU holder *pays* at its next system call (``sim/cpu.py``); a chunked
send on tcp/sisci/bip prices its whole pipeline with one charge
(``networks/nic.py``).  Both remove engine events and must move no
virtual time.  The code that charged block by block and chunk by chunk
no longer exists, so the reference is a record:
``tests/goldens/latency_grid.json`` was written by this file's
``python tests/test_charge_fusion.py --write`` **on the parent commit
(c5ec864, PR 12), before the source was touched**, through entry points
that exist on both sides (``MPIWorld.run``, ``raw_madeleine_pingpong``).
Every test below recomputes and compares exactly.

The last two tests assert the point of the change as counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench import raw_madeleine
from repro.cluster import (
    ClusterConfig,
    EngineConfig,
    MPIWorld,
    NodeSpec,
    paper_cluster,
    two_node_cluster,
)
from repro.faults import lossy_plan
from repro.mpi.devices.ch_mad.switchpoints import SWITCH_POINTS
from repro.networks import PROTOCOL_PARAMS
from repro.sim.coroutines import now

GOLDEN = Path(__file__).parent / "goldens" / "latency_grid.json"

#: ch_mad worlds: label -> (network, rdma).
MPI_CASES = {"tcp": ("tcp", True), "sisci": ("sisci", True),
             "bip": ("bip", True), "ib+rdma": ("ib", True),
             "ib-rdma": ("ib", False)}
RAW_NETWORKS = ("tcp", "sisci", "bip", "ib")
FAULT_SEEDS = (0, 1, 2, 3, 4, 5)


def grid_sizes(network: str) -> list[int]:
    """0, 4, 1 KiB, one chunk, one chunk + 1, three chunks and a bit,
    1 MiB, and every switch point of the network with its neighbours."""
    params = PROTOCOL_PARAMS[network]
    chunk = params.chunk_size
    sizes = {0, 4, 1024, chunk, chunk + 1, 3 * chunk + 17, 1 << 20}
    for point in (SWITCH_POINTS[network], params.long_threshold):
        if point:
            sizes |= {point - 1, point, point + 1}
    return sorted(sizes)


# -- what one world shows ----------------------------------------------------


def _cpu_view(cpus) -> dict:
    return {
        "busy_ns": [cpu.busy_time for cpu in cpus],
        "poller_cpu_ns": {task.name: task.cpu_time for cpu in cpus
                          for task in cpu.tasks() if ".poll." in task.name},
    }


def _pingpong(size: int, round_trips: int):
    payload = b"\x00" * min(size, 1)

    def program(mpi):
        comm = mpi.comm_world
        took = []
        for _ in range(round_trips):
            if comm.rank == 0:
                start = yield now()
                yield from comm.send(payload, dest=1, tag=5, size=size)
                yield from comm.recv(source=1, tag=5, size=size)
                took.append((yield now()) - start)
            else:
                yield from comm.recv(source=0, tag=5, size=size)
                yield from comm.send(payload, dest=0, tag=5, size=size)
        return took, (yield now())

    return program


def mpi_point(network: str, rdma: bool, size: int, round_trips: int = 3,
              **engine_kw) -> dict:
    """One ch_mad ping-pong world, observed."""
    config = two_node_cluster(networks=(network,))
    config.rdma = rdma
    world = MPIWorld(config, engine_config=EngineConfig(**engine_kw))
    results = world.run(_pingpong(size, round_trips))
    took = results[0][0]
    point = {
        "one_way_ns": min(took) // 2,
        "round_trips_ns": took,
        "last_main_ns": max(end for _, end in results),
        "drained_ns": world.engine.now,
        **_cpu_view([env.process.runtime.cpu for env in world.envs]),
    }
    if world.engine.tracer.enabled:
        records = [(r.time, r.category, sorted(r.fields.items()))
                   for r in world.engine.tracer.records]
        point["trace_sha256"] = hashlib.sha256(
            repr(records).encode()).hexdigest()
    point["events"] = world.engine.events_executed  # not in the golden
    return point


def raw_point(network: str, size: int, reps: int = 3,
              chunk_size: int | None = None) -> dict:
    """One raw-Madeleine ping-pong session, observed.

    ``raw_madeleine_pingpong`` builds its own session; the subclass
    below only keeps a handle on it.
    """
    sessions = []

    class Recorded(raw_madeleine.MadeleineSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    params = PROTOCOL_PARAMS[network]
    if chunk_size is not None:
        params = dataclasses.replace(params, chunk_size=chunk_size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raw_madeleine, "MadeleineSession", Recorded)
        result = raw_madeleine.raw_madeleine_pingpong(
            network, size, reps=reps, warmup=0, params=params)
    (session,) = sessions
    return {
        "one_way_ns": result.one_way_ns,
        "mean_one_way_ns": result.mean_one_way_ns,
        "end_ns": session.engine.now,
        "events": session.engine.events_executed,  # not in the golden
        **_cpu_view([p.runtime.cpu for p in session.processes]),
    }


def lossy_ring_point(fault_seed: int) -> dict:
    """The ledger's ``lossy_ring`` shape, shorter: 4 ranks, sisci + tcp,
    2 % loss on both fabrics."""
    config = paper_cluster(nodes=4, networks=("sisci", "tcp"))
    config.fault_plan = lossy_plan(0.02, fabrics=("sisci", "tcp"),
                                   seed=fault_seed)
    plan = ((64, 11), (1024, 22), (16 * 1024, 33), (100_000, 44))

    def program(mpi):
        comm = mpi.comm_world
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        total = 0
        for tag, (size, nonce) in enumerate(plan):
            for r in range(12):
                data, status = yield from comm.sendrecv(
                    nonce + comm.rank * 7919 + r, dest=right, sendtag=tag,
                    source=left, recvtag=tag, size=size, recvsize=size)
                total += data + status.count
        return total, (yield now())

    world = MPIWorld(config)
    results = world.run(program)
    return {"checksums": [total for total, _ in results],
            "last_main_ns": max(end for _, end in results)}


def ib_overlap_point() -> dict:
    """Channel sends longer than a chunk while the HCA answers RDMA reads
    on the same port.

    Rank 0 streams 15 000 B eager messages to rank 1 over an ib fabric
    whose chunk is 4 KiB (four chunks each, all through the sending
    CPU); rank 2 meanwhile reads 48 KiB slabs out of rank 0's window,
    and those read replies leave rank 0's adapter from engine callbacks
    — between two chunks of one send.  This is why ``IbEndpoint`` keeps
    the per-chunk loop.
    """
    params = dataclasses.replace(PROTOCOL_PARAMS["ib"], chunk_size=4096)
    config = ClusterConfig(
        nodes=[NodeSpec(f"n{i}", networks=("ib",)) for i in range(3)],
        protocol_params={"ib": params})

    def program(mpi):
        comm = mpi.comm_world
        win = yield from comm.win_create(64 * 1024)
        yield from win.fence()
        seen = []
        if comm.rank == 0:
            for i in range(12):
                yield from comm.send(i, dest=1, tag=3, size=15_000)
        elif comm.rank == 1:
            for i in range(12):
                data, status = yield from comm.recv(source=0, tag=3,
                                                    size=15_000)
                seen.append((data, status.count, (yield now())))
        else:
            for i in range(6):
                got = yield from win.get(0, 1024 * i, 48 * 1024)
                seen.append((i, (yield now())))
        yield from win.fence()
        yield from win.free()
        return seen, (yield now())

    world = MPIWorld(config)
    results = world.run(program)
    return {
        "seen": [seen for seen, _ in results],
        "last_main_ns": max(end for _, end in results),
        **_cpu_view([env.process.runtime.cpu for env in world.envs]),
    }


def _normal(point: dict) -> dict:
    """A point as the golden stores it: JSON-shaped, without the event
    count (which is what the change is allowed to move)."""
    point = {k: v for k, v in point.items() if k != "events"}
    return json.loads(json.dumps(point))


def compute_golden() -> dict:
    """Everything the golden pins (JSON-shaped)."""
    golden = {
        "_header": (
            "Written by `python tests/test_charge_fusion.py --write` on "
            "the PARENT commit c5ec864 (PR 12), where every pack, unpack, "
            "handling cost and pipeline chunk was its own charge event; "
            "tests/test_charge_fusion.py recomputes these on the fused "
            "code and compares exactly.  Regenerate only from a commit "
            "whose virtual times are known good."),
        "mpi": {label: {str(size): _normal(mpi_point(net, rdma, size))
                        for size in grid_sizes(net)}
                for label, (net, rdma) in MPI_CASES.items()},
        "raw": {net: {str(size): _normal(raw_point(net, size))
                      for size in grid_sizes(net)}
                for net in RAW_NETWORKS},
        "traced": {label: {str(size): mpi_point(
                               net, rdma, size, round_trips=2,
                               instrumentation=True)["trace_sha256"]
                           for size in (4, SWITCH_POINTS[net] + 1)}
                   for label, (net, rdma) in MPI_CASES.items()},
        "lossy_ring": {str(seed): lossy_ring_point(seed)
                       for seed in FAULT_SEEDS},
        "ib_overlap": ib_overlap_point(),
    }
    return json.loads(json.dumps(golden))


# -- the differential --------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", MPI_CASES)
def test_ch_mad_grid_matches_parent(golden, label):
    net, rdma = MPI_CASES[label]
    for size in grid_sizes(net):
        assert _normal(mpi_point(net, rdma, size)) == \
            golden["mpi"][label][str(size)], (label, size)


@pytest.mark.parametrize("net", RAW_NETWORKS)
def test_raw_madeleine_grid_matches_parent(golden, net):
    for size in grid_sizes(net):
        assert _normal(raw_point(net, size)) == \
            golden["raw"][net][str(size)], (net, size)


@pytest.mark.parametrize("label", MPI_CASES)
def test_trace_records_keep_their_timestamps(golden, label):
    """No trace record may sit between an accrual and its payment."""
    net, rdma = MPI_CASES[label]
    for size in (4, SWITCH_POINTS[net] + 1):
        point = mpi_point(net, rdma, size, round_trips=2,
                          instrumentation=True)
        assert point["trace_sha256"] == golden["traced"][label][str(size)], \
            (label, size)


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_lossy_ring_matches_parent(golden, seed):
    """Checksums and the instant the last main returns — not the clock
    after the finalize drain, which a ``transport-resend`` thread stopped
    mid-pipeline may now leave later (DESIGN.md §8)."""
    assert _normal(lossy_ring_point(seed)) == golden["lossy_ring"][str(seed)]


def test_ib_channel_send_overlapping_rdma_reads_matches_parent(golden):
    assert _normal(ib_overlap_point()) == golden["ib_overlap"]


# -- the point of the change, as counts --------------------------------------


def test_sisci_small_round_trip_takes_at_most_16_events():
    """32 on the parent: 11 of them back-to-back charges of one task."""
    short = mpi_point("sisci", True, 4, round_trips=10)["events"]
    long = mpi_point("sisci", True, 4, round_trips=110)["events"]
    assert (long - short) / 100 <= 16


def test_tcp_bulk_send_events_do_not_grow_with_chunk_count():
    """1 MiB over raw tcp: 32 chunks or 128, the same events."""
    coarse = raw_point("tcp", 1 << 20, reps=2, chunk_size=32 * 1024)
    fine = raw_point("tcp", 1 << 20, reps=2, chunk_size=8 * 1024)
    assert fine["events"] == coarse["events"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_charge_fusion.py --write")
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
