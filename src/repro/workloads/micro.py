"""The micro/protocol workloads.

Each workload builds a cluster configuration plus a rank program whose
*return value is schedule-independent*: whatever legal interleaving the
fuzzer provokes, every rank must compute the same user-visible result.
The fuzz sweep exploits this — it runs one workload across many fuzz
seeds with the online checker enabled and fails if either (a) a checker
invariant trips, or (b) two seeds disagree on the results.

Programs therefore reduce anything timing-dependent to a canonical form
before returning it: the mixed workload collects wildcard receives into
a *sorted multiset* (which request caught which message depends on the
schedule; the set of delivered messages does not).

Pitfalls baked into these programs, learned the hard way:

- collectives run on the communicator's hidden collective context, so
  posted ``ANY_SOURCE``/``ANY_TAG`` wildcards cannot steal their
  traffic — but the mixed workload still phases collectives first so
  the p2p storm and the collective schedule do not share the wire;
- every receive is posted before any send, so blocking/synchronous
  sends can always rendezvous (no send-send cycles for the fuzzer to
  tip into deadlock — *real* deadlocks are the negative tests' job);
- the lossy variant reuses the mixed program verbatim on lossy fabrics:
  the reliable transport must make packet loss invisible to results.

The builder bodies are frozen on purpose: fuzz-seed digests and
goldens pin them bit for bit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator

import numpy as np

from repro.cluster.config import multirail_smp_cluster
from repro.cluster.node import ClusterConfig, NodeSpec
from repro.errors import ConfigurationError
from repro.faults import lossy_plan
from repro.sim.engine import seed_namespace
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.reduce_ops import MAX, SUM

from repro.workloads.registry import Param, Workload, register

#: ``build(workload_seed) -> (config, program)``; ``program(env)`` is a
#: rank generator whose return value must not depend on the schedule.
Builder = Callable[[int], tuple[ClusterConfig, Callable[[Any], Generator]]]


def _nodes(count: int, networks: tuple[str, ...]) -> list[NodeSpec]:
    return [NodeSpec(f"n{i}", networks=networks) for i in range(count)]


# ---------------------------------------------------------------------------
# pingpong: the classic 2-rank latency loop (eager sizes only)
# ---------------------------------------------------------------------------

def _build_pingpong(workload_seed: int):
    del workload_seed  # shape is fixed; the fuzzer supplies the variation
    config = ClusterConfig(nodes=_nodes(2, ("sisci",)))
    # Sizes straddle the 8 KB SCI switch point: the 16 KB round goes
    # rendezvous, whose SENDOK temp threads give the fuzzer something
    # to jitter.  isend (temp-thread send bodies) for the same reason.
    sizes = (64, 1024, 4096, 16_384)
    reps, warmup = 4, 2

    def program(mpi):
        comm = mpi.comm_world
        me, peer = comm.rank, 1 - comm.rank
        echoes = []
        for size in sizes:
            for rep in range(warmup + reps):
                payload = (size, rep)
                if me == 0:
                    request = comm.isend(payload, dest=peer, tag=5, size=size)
                    data, _status = yield from comm.recv(source=peer, tag=5)
                    yield from request.wait()
                else:
                    data, _status = yield from comm.recv(source=peer, tag=5)
                    yield from comm.send(payload, dest=peer, tag=5, size=size)
                echoes.append(data)
        return tuple(echoes)

    return config, program


# ---------------------------------------------------------------------------
# collectives: every algorithm-registry variant plus the defaults
# ---------------------------------------------------------------------------

def _build_collectives(workload_seed: int):
    del workload_seed
    config = ClusterConfig(nodes=_nodes(4, ("sisci", "tcp")))

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        out = []
        for name in ("binomial", "linear"):
            obj = ("payload", 1) if me == 1 else None
            value = yield from comm.bcast(obj, root=1, algorithm=name)
            out.append((f"bcast:{name}", value))
        for name in ("recursive_doubling", "reduce_bcast"):
            value = yield from comm.allreduce(me + 1, SUM, algorithm=name)
            out.append((f"allreduce:{name}", value))
        value = yield from comm.allgather(me * 10, algorithm="bruck")
        out.append(("allgather:bruck", tuple(value)))
        value = yield from comm.allgather(me * 10)
        out.append(("allgather:ring", tuple(value)))
        value = yield from comm.alltoall([f"{me}->{d}" for d in range(comm.size)])
        out.append(("alltoall", tuple(value)))
        value = yield from comm.alltoallv(
            ["x" * (d + 1) * (me + 1) for d in range(comm.size)])
        out.append(("alltoallv", tuple(value)))
        value = yield from comm.reduce(me, MAX, root=0)
        out.append(("reduce:max", value))
        value = yield from comm.scan(me + 1)
        out.append(("scan", value))
        value = yield from comm.exscan(me + 1)
        out.append(("exscan", value))
        yield from comm.barrier()
        return tuple(out)

    return config, program


# ---------------------------------------------------------------------------
# hier_collectives: node-aware two-level algorithms on SMP nodes
# ---------------------------------------------------------------------------

def _build_hier_collectives(workload_seed: int):
    del workload_seed
    # Four dual-rank SMP nodes: smp_plug inside a node, ch_mad across —
    # the layering the hierarchical family decomposes over.
    config = ClusterConfig(nodes=[
        NodeSpec(f"smp{i}", networks=("sisci", "tcp"), processes=2)
        for i in range(4)])

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        out = []
        total = yield from comm.allreduce(me + 1, SUM, algorithm="hier")
        out.append(("allreduce:hier", total))
        value = yield from comm.bcast(("blob", 3) if me == 3 else None,
                                      root=3, algorithm="hier")
        out.append(("bcast:hier", value))
        gathered = yield from comm.allgather(me * 7, algorithm="hier")
        out.append(("allgather:hier", tuple(gathered)))
        peak = yield from comm.reduce(me, MAX, root=1, algorithm="hier")
        out.append(("reduce:hier", peak))
        yield from comm.barrier(algorithm="hier")
        # Interleave with the flat default: cross-algorithm interference
        # (stolen matches on the collective context) would trip the
        # checker or change the result here.
        total = yield from comm.allreduce(me + 1)
        out.append(("allreduce:default", total))
        return tuple(out)

    return config, program


# ---------------------------------------------------------------------------
# multilane: payload decomposition across two SCI rails
# ---------------------------------------------------------------------------

def _build_multilane(workload_seed: int):
    del workload_seed
    # Two rails per node: the multi-lane family splits payloads across
    # them and runs per-lane sub-collectives in temporary threads —
    # prime spawn-jitter territory for the fuzzer.
    config = ClusterConfig(nodes=[
        NodeSpec(f"n{i}", networks=("sisci", "sisci#1")) for i in range(4)])

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        out = []
        data = np.arange(64, dtype=np.float64) + me
        total = yield from comm.allreduce(data, SUM, algorithm="multilane")
        out.append(("allreduce:multilane",
                    tuple(float(v) for v in total)))
        blob = (b"stripe" * 20) if me == 0 else None
        value = yield from comm.bcast(blob, root=0, algorithm="multilane")
        out.append(("bcast:multilane", value))
        blocks = yield from comm.allgather(bytes([65 + me]) * 9,
                                           algorithm="multilane")
        out.append(("allgather:multilane", tuple(blocks)))
        total = yield from comm.allreduce(me + 1)  # default, interleaved
        out.append(("allreduce:default", total))
        return tuple(out)

    return config, program


# ---------------------------------------------------------------------------
# rank_death: a rank dies mid-job; survivors revoke + shrink + continue
# ---------------------------------------------------------------------------

def _build_rank_death(workload_seed: int):
    from repro.errors import MPIProcFailedError, MPIRevokedError
    from repro.faults import FaultPlan
    from repro.units import us

    # Victim and time-of-death come from the *workload* seed, so every
    # fuzz seed replays the same failure under a different schedule.
    nranks = 4
    rng = random.Random(seed_namespace("rank-death", workload_seed))
    victim = rng.randrange(nranks)
    death_at = us(rng.randrange(150, 600))
    config = ClusterConfig(
        nodes=_nodes(nranks, ("sisci", "tcp")),
        fault_plan=FaultPlan.node_death(rank=victim, at=death_at,
                                        seed=workload_seed + 1),
    )

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        right, left = (me + 1) % comm.size, (me - 1) % comm.size
        died = False
        for step in range(400):
            # Collectives and a p2p ring, both of which must fail with
            # ERR_PROC_FAILED / ERR_REVOKED (never hang) once the victim
            # is gone.  *Which* iteration sees the error is schedule-
            # dependent, so nothing pre-failure reaches the result.
            try:
                yield from comm.allreduce(me + 1, SUM)
                yield from comm.sendrecv(("ring", step), dest=right,
                                         sendtag=step % 3, source=left,
                                         recvtag=step % 3, size=256)
            except (MPIProcFailedError, MPIRevokedError):
                died = True
                break
        if not died:
            return ("unscathed",)
        comm.revoke()
        shrunk = yield from comm.shrink()
        total = yield from shrunk.allreduce(shrunk.rank + 1, SUM)
        gathered = yield from shrunk.allgather(shrunk.rank * 5)
        agreed = yield from shrunk.agree(1)
        return ("survivor", shrunk.rank, shrunk.size, total,
                tuple(gathered), agreed)

    return config, program


# ---------------------------------------------------------------------------
# rma_storm: one-sided Put/Get/Accumulate epochs + a p2p ring, on lossy IB
# ---------------------------------------------------------------------------

def _build_rma_storm(workload_seed: int):
    """Mixed one-sided traffic whose result is schedule-independent by
    construction:

    - puts from origin ``o`` only ever land in slice ``[o*32, (o+1)*32)``
      of a target window, and same-origin sends are non-overtaking, so
      the final slice contents are the origin's *last* put in program
      order whatever the interleaving;
    - accumulate is SUM over int64 slots (commutative — apply order
      within an epoch cannot matter);
    - gets read only the static region ``[192, 256)``, stamped by each
      owner before the first fence and never written again, so both the
      RDMA-read fast path and the agent reply path return the same bytes.

    The p2p ring rides alongside with sizes up to 60 kB so the epochs
    share the wire with RDMA-rendezvous traffic, all over a lossy plan
    covering both fabrics (HCA retransmits + reliable transport).
    """
    import hashlib

    nranks = 4
    win_size = 256
    rng = random.Random(seed_namespace("rma-storm", workload_seed))
    epochs = []
    for _ in range(3):
        ops = []
        for origin in range(nranks):
            for _ in range(rng.randrange(2, 6)):
                kind = rng.choice(("put", "acc", "get"))
                target = rng.randrange(nranks)
                if kind == "put":
                    ops.append((origin, "put", target,
                                rng.randrange(1, 33), rng.randrange(256)))
                elif kind == "acc":
                    ops.append((origin, "acc", target,
                                rng.randrange(8), rng.randrange(1, 1000)))
                else:
                    ops.append((origin, "get", target,
                                192 + rng.randrange(32), rng.randrange(1, 33)))
        ring_size = rng.choice((0, 4, 8192, 60_000))
        epochs.append((tuple(ops), ring_size))
    config = ClusterConfig(
        nodes=_nodes(nranks, ("ib", "tcp")),
        fault_plan=lossy_plan(0.02, fabrics=("tcp", "ib"),
                              seed=workload_seed + 1),
    )

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        win = yield from comm.win_create(win_size)
        # Owner-stamped static read region, before any epoch opens.
        win.buffer[192:256] = np.arange(64, dtype=np.uint8) + me
        yield from win.fence()
        gets = []
        for step, (ops, ring_size) in enumerate(epochs):
            pending = []
            for origin, kind, target, a, b in ops:
                if origin != me:
                    continue
                if kind == "put":
                    yield from win.put(target, me * 32, bytes([b]) * a)
                elif kind == "acc":
                    yield from win.accumulate(target, 128 + a * 8, [b])
                else:
                    result = yield from win.get(target, a, b)
                    pending.append((step, target, a, b, result))
            right, left = (me + 1) % comm.size, (me - 1) % comm.size
            yield from comm.sendrecv(("ring", step, me), dest=right,
                                     sendtag=step, source=left,
                                     recvtag=step, size=ring_size)
            yield from win.fence()
            for entry in pending:
                step_, target, offset, length, result = entry
                gets.append((step_, target, offset, length, result.data))
        digest = hashlib.sha256(bytes(win.buffer)).hexdigest()
        yield from win.free()
        return (digest, tuple(sorted(gets, key=repr)))

    return config, program


# ---------------------------------------------------------------------------
# mixed: seeded p2p storm (wildcards, all send modes, eager + rendezvous)
# ---------------------------------------------------------------------------

_SIZES = (0, 4, 512, 8192, 9000, 60_000)


def _mixed_schedule(workload_seed: int, nranks: int, nmessages: int):
    rng = random.Random(seed_namespace("mixed-workload", workload_seed))
    messages = []
    for mid in range(nmessages):
        src = rng.randrange(nranks)
        dst = rng.choice([r for r in range(nranks) if r != src])
        tag = rng.randrange(3)
        size = rng.choice(_SIZES)
        mode = rng.choice(["send", "isend", "ssend"])
        messages.append((src, dst, tag, size, mode, mid))
    wildcard = {r: rng.random() < 0.5 for r in range(nranks)}
    return messages, wildcard


def _mixed_program(messages, wildcard):
    def program(mpi):
        from repro.mpi import point2point as _p2p

        comm = mpi.comm_world
        me = comm.rank

        # Phase 1: collectives, before the p2p storm starts.
        total = yield from comm.allreduce(me + 1)
        gathered = yield from comm.allgather(me * 3)

        # Phase 2: post every incoming receive up front.
        requests = []
        for src, dst, tag, size, mode, mid in messages:
            if dst != me:
                continue
            if wildcard[me]:
                requests.append(comm.irecv(source=ANY_SOURCE, tag=ANY_TAG))
            else:
                requests.append(comm.irecv(source=src, tag=tag))

        # Phase 3: sends, in schedule order.
        pending = []
        for src, dst, tag, size, mode, mid in messages:
            if src != me:
                continue
            payload = (mid, size)
            if mode == "send":
                yield from comm.send(payload, dest=dst, tag=tag, size=size)
            elif mode == "ssend":
                yield from comm.ssend(payload, dest=dst, tag=tag, size=size)
            else:
                pending.append(comm.isend(payload, dest=dst, tag=tag, size=size))

        # Phase 4: drain.  With wildcards, which *request* caught which
        # message is schedule-dependent; the multiset of delivered
        # (source, tag, data) triples is not — canonicalize by sorting.
        got = []
        for request in requests:
            data, status = yield from _p2p.recv_wait(comm, request)
            got.append((status.source, status.tag, data))
        for request in pending:
            yield from request.wait()
        return (total, tuple(gathered), tuple(sorted(got, key=repr)))

    return program


def _build_mixed(workload_seed: int):
    nranks = 4
    messages, wildcard = _mixed_schedule(workload_seed, nranks, nmessages=18)
    config = ClusterConfig(nodes=_nodes(nranks, ("sisci",)))
    return config, _mixed_program(messages, wildcard)


def _build_lossy(workload_seed: int):
    # Same traffic as `mixed`, but over lossy fabrics with the reliable
    # transport underneath: drops/retransmits must not change results.
    nranks = 4
    messages, wildcard = _mixed_schedule(workload_seed, nranks, nmessages=18)
    config = ClusterConfig(
        nodes=_nodes(nranks, ("sisci", "tcp")),
        fault_plan=lossy_plan(0.02, seed=workload_seed + 1),
    )
    return config, _mixed_program(messages, wildcard)


# ---------------------------------------------------------------------------
# ring_exchange: the large-world probe (mostly idle, rank +- 1 traffic)
# ---------------------------------------------------------------------------

def _build_ring_exchange(workload_seed: int, *, ranks: int, rounds: int):
    del workload_seed
    if ranks % 4:
        raise ConfigurationError(
            f"ring_exchange: ranks={ranks} is not a multiple of 4")
    config = multirail_smp_cluster(nodes=ranks // 4, processes_per_node=4,
                                   rails=1, network="sisci")

    def program(mpi):
        comm = mpi.comm_world
        rank, size = comm.rank, comm.size
        right, left = (rank + 1) % size, (rank - 1) % size
        payload = b"x" * 64
        received = 0
        for _ in range(rounds):
            # Even ranks send first, odd ranks receive first; an eager
            # 64-byte payload makes either order deadlock-free.
            if rank % 2 == 0:
                yield from comm.send(payload, dest=right, tag=1)
                data, _ = yield from comm.recv(source=left, tag=1)
                received += len(data)
                yield from comm.send(payload, dest=left, tag=2)
                data, _ = yield from comm.recv(source=right, tag=2)
                received += len(data)
            else:
                data, _ = yield from comm.recv(source=left, tag=1)
                received += len(data)
                yield from comm.send(payload, dest=right, tag=1)
                data, _ = yield from comm.recv(source=right, tag=2)
                received += len(data)
                yield from comm.send(payload, dest=left, tag=2)
        return received

    return config, program


register(Workload("pingpong", "2-rank eager latency loop on SCI",
                  _build_pingpong))
register(Workload("collectives", "every collective algorithm variant, "
                  "4 ranks on SCI+TCP", _build_collectives))
register(Workload("hier_collectives", "node-aware hierarchical collectives, "
                  "4 dual-rank SMP nodes on SCI+TCP", _build_hier_collectives))
register(Workload("multilane", "multi-lane collectives over two SCI rails, "
                  "4 ranks", _build_multilane))
register(Workload("mixed", "seeded p2p storm: wildcards, all send modes, "
                  "eager + rendezvous", _build_mixed))
register(Workload("lossy", "the mixed storm over lossy fabrics with the "
                  "reliable transport", _build_lossy))
register(Workload("rank_death", "a seed-chosen rank dies mid-job; survivors "
                  "revoke, shrink and finish", _build_rank_death))
register(Workload("rma_storm", "one-sided Put/Get/Accumulate fence epochs "
                  "plus a p2p ring, 4 ranks on lossy IB+TCP",
                  _build_rma_storm))
register(Workload(
    "ring_exchange", "neighbour exchange on 4-rank SMP nodes over one SCI "
    "rail: the large-world probe", _build_ring_exchange,
    params={"ranks": Param(8, "world size (a multiple of 4)"),
            "rounds": Param(4, "exchange rounds (two messages per "
                            "neighbour each)")}))
