"""Scale/stress tests: larger worlds, heavy collectives, meta-clusters."""

import collections
import gc
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterConfig, MPIWorld, NodeSpec, cluster_of_clusters
from repro.cluster.config import multirail_smp_cluster
from repro import workloads
from repro.mpi.reduce_ops import SUM
from tests.helpers import linear_cluster, run_world


class TestLargeWorlds:
    def test_alltoall_32_ranks(self):
        def program(mpi):
            comm = mpi.comm_world
            outgoing = [comm.rank * 1000 + dest for dest in range(comm.size)]
            incoming = yield from comm.alltoall(outgoing)
            return incoming

        results = run_world(program, linear_cluster(32))
        for me, got in enumerate(results):
            assert got == [src * 1000 + me for src in range(32)]

    def test_allreduce_tree_32_ranks(self):
        def program(mpi):
            comm = mpi.comm_world
            total = yield from comm.allreduce(comm.rank, op=SUM)
            return total

        expected = sum(range(32))
        assert run_world(program, linear_cluster(32)) == [expected] * 32

    def test_barrier_storm(self):
        def program(mpi):
            comm = mpi.comm_world
            for _ in range(20):
                yield from comm.barrier()
            return True

        assert all(run_world(program, linear_cluster(16)))

    def test_many_outstanding_requests(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, tag=i % 8) for i in range(64)]
                for req in reqs:
                    yield from req.wait()
                return None
            got = []
            reqs = [comm.irecv(source=0, tag=t) for t in range(8)
                    for _ in range(8)]
            from repro.mpi.request import Request
            results = yield from Request.waitall(reqs)
            return sorted(r[0] for r in results)

        results = run_world(program, linear_cluster(2))
        assert results[1] == list(range(64))


def _exchange_and_allreduce(mpi):
    """Sparse ring neighbour exchange, then one hierarchical allreduce."""
    comm = mpi.comm_world
    rank, size = comm.rank, comm.size
    right, left = (rank + 1) % size, (rank - 1) % size
    if rank % 2 == 0:
        yield from comm.send(rank, dest=right, tag=7)
        from_left = yield from comm.recv(source=left, tag=7)
    else:
        from_left = yield from comm.recv(source=left, tag=7)
        yield from comm.send(rank, dest=right, tag=7)
    total = yield from comm.allreduce(rank, op=SUM, algorithm="hier")
    return (from_left[0], total)


def _run_512(budget_assert: bool):
    """Build + run a 512-rank world; returns a result digest.

    Only a run that checks the memory budget runs under ``tracemalloc``
    (which makes it about ten times slower); the digest is the same either
    way.
    """
    config = multirail_smp_cluster(nodes=128, processes_per_node=4,
                                   rails=1, network="sisci")
    if budget_assert:
        tracemalloc.start()
    world = MPIWorld(config)
    results = world.run(_exchange_and_allreduce)
    if budget_assert:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # ~9 KiB/rank to construct, ~28 MiB traced peak with the run
        # (Python 3.11); the budget's slack is there so only a
        # *superlinear* regression (an O(ranks^2) table) trips it.
        assert peak < 40 * 1024 * 1024, (
            f"512-rank world peaked at {peak / 2**20:.1f} MiB traced "
            f"memory (budget 40 MiB)")
    expected_total = sum(range(512))
    for rank, (from_left, total) in enumerate(results):
        assert from_left == (rank - 1) % 512
        assert total == expected_total
    digest = hashlib.sha256()
    digest.update(repr(results).encode())
    digest.update(str(world.engine.now).encode())
    return digest.hexdigest()


class TestThousandRankScale:
    """The PR-8 scaling guard: big worlds must stay cheap *and* exact."""

    def test_an_idle_rank_holds_at_most_one_deque(self):
        # Idle primitives queue waiters in lists and a mailbox makes its
        # deque on the first item that waits: a built rank keeps only
        # its CPU's ready queue (an empty deque is a 64-slot block).
        def deques():
            gc.collect()
            return sum(1 for o in gc.get_objects()
                       if type(o) is collections.deque)

        before = deques()
        world = MPIWorld(multirail_smp_cluster(nodes=64,
                                               processes_per_node=4,
                                               rails=1))
        built = deques() - before
        assert built <= 256 + 1, (  # + the engine's zero-delay queue
            f"a built 256-rank world holds {built / 256:.2f} deques per "
            f"rank")
        del world

    def test_512_rank_world_memory_and_determinism(self):
        first = _run_512(budget_assert=True)
        second = _run_512(budget_assert=False)
        assert first == second, (
            "512-rank run is not bit-identical across two builds")

    @pytest.mark.skipif(os.environ.get("REPRO_SOAK") != "1",
                        reason="set REPRO_SOAK=1 to run the 1024-rank storm")
    def test_1024_rank_million_event_storm(self):
        # The ring_exchange probe at 1024 ranks, long enough to execute
        # a million engine events in one world; its virtual time grows
        # by exactly 48 308 ns a round.
        config, program = workloads.get("ring_exchange").instantiate(
            params={"ranks": 1024, "rounds": 57})
        world = MPIWorld(config)
        assert world.run(program) == [57 * 128] * 1024
        assert world.engine.now == 600 + 57 * 48_308
        assert world.engine.events_executed >= 1_000_000


class TestMetaClusterScale:
    def test_collectives_on_large_meta_cluster(self):
        config = cluster_of_clusters(sci_nodes=4, myrinet_nodes=4)
        world = MPIWorld(config)

        def program(mpi):
            comm = mpi.comm_world
            send = np.full(16, float(comm.rank))
            recv = np.zeros(16)
            yield from comm.Allreduce(send, recv, op=SUM)
            gathered = yield from comm.gather(comm.rank, root=0)
            yield from comm.barrier()
            return (float(recv[0]), gathered)

        results = world.run(program)
        expected = float(sum(range(8)))
        assert all(r[0] == expected for r in results)
        assert results[0][1] == list(range(8))
        # Cross-island collective legs used TCP; intra-island used fast nets.
        tcp = world.session.fabrics["tcp"]
        assert sum(a.messages_received for a in tcp.adapters) > 0

    def test_forwarded_meta_cluster_collectives(self):
        """Gateways only — no common network anywhere."""
        nodes = (
            [NodeSpec(f"sci{i}", networks=("sisci",)) for i in range(3)]
            + [NodeSpec("gw", networks=("sisci", "bip"))]
            + [NodeSpec(f"myri{i}", networks=("bip",)) for i in range(3)]
        )
        config = ClusterConfig(nodes=nodes, device="ch_mad", forwarding=True)
        world = MPIWorld(config)

        def program(mpi):
            comm = mpi.comm_world
            total = yield from comm.allreduce(comm.rank + 1, op=SUM)
            return total

        expected = sum(range(1, 8))
        assert world.run(program) == [expected] * 7
        relayed = world.envs[3].inter_device.packets_relayed
        assert relayed > 0, "the gateway must have relayed traffic"

    def test_big_payload_collective(self):
        def program(mpi):
            comm = mpi.comm_world
            chunk = np.full(65536, float(comm.rank))  # 512 KB each
            gathered = yield from comm.gather(chunk, root=0)
            if comm.rank == 0:
                return [float(g[0]) for g in gathered]
            return None

        results = run_world(program, linear_cluster(4, networks=("bip",)))
        assert results[0] == [0.0, 1.0, 2.0, 3.0]
