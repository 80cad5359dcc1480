"""Tests for communicator management: dup, split, contexts."""

import pytest

from repro.errors import MPICommError
from repro.mpi.constants import UNDEFINED
from repro.mpi.reduce_ops import SUM
from tests.helpers import run_ranks


class TestDup:
    def test_dup_isolates_traffic(self):
        """A message sent on the dup must not match a recv on world."""
        def program(mpi):
            comm = mpi.comm_world
            dup = yield from comm.dup()
            assert dup.context_id != comm.context_id
            if comm.rank == 0:
                yield from dup.send("on-dup", dest=1, tag=1)
                yield from comm.send("on-world", dest=1, tag=1)
                return None
            world_msg, _ = yield from comm.recv(source=0, tag=1)
            dup_msg, _ = yield from dup.recv(source=0, tag=1)
            return (world_msg, dup_msg)

        assert run_ranks(program)[1] == ("on-world", "on-dup")

    def test_dup_same_ranks(self):
        def program(mpi):
            dup = yield from mpi.comm_world.dup()
            return (dup.rank, dup.size)

        assert run_ranks(program, nranks=3) == [(0, 3), (1, 3), (2, 3)]


class TestSplit:
    def test_split_even_odd(self):
        def program(mpi):
            comm = mpi.comm_world
            color = comm.rank % 2
            sub = yield from comm.split(color)
            total = yield from sub.allreduce(comm.rank, op=SUM)
            return (sub.rank, sub.size, total)

        results = run_ranks(program, nranks=4)
        # evens: world 0,2 -> sum 2; odds: world 1,3 -> sum 4.
        assert results[0] == (0, 2, 2)
        assert results[2] == (1, 2, 2)
        assert results[1] == (0, 2, 4)
        assert results[3] == (1, 2, 4)

    def test_split_key_reorders(self):
        def program(mpi):
            comm = mpi.comm_world
            sub = yield from comm.split(0, key=-comm.rank)
            return sub.rank

        # Reverse key order: highest world rank becomes rank 0.
        assert run_ranks(program, nranks=3) == [2, 1, 0]

    def test_split_undefined_returns_none(self):
        def program(mpi):
            comm = mpi.comm_world
            color = UNDEFINED if comm.rank == 0 else 1
            sub = yield from comm.split(color)
            if comm.rank == 0:
                return sub is None
            return sub.size

        results = run_ranks(program, nranks=3)
        assert results == [True, 2, 2]


class TestFree:
    def test_freed_comm_rejects_operations(self):
        def program(mpi):
            comm = mpi.comm_world
            dup = yield from comm.dup()
            dup.free()
            with pytest.raises(MPICommError):
                yield from dup.send(1, dest=0)
            yield from comm.barrier()
            return "ok"

        assert run_ranks(program) == ["ok", "ok"]


class TestEnvMisc:
    def test_wtime_advances(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            t0 = mpi.wtime()
            yield sleep(us(100))
            t1 = mpi.wtime()
            return t1 - t0

        results = run_ranks(program)
        assert all(abs(dt - 100e-6) < 1e-9 for dt in results)

    def test_world_shape(self):
        def program(mpi):
            comm = mpi.comm_world
            return (comm.rank, comm.size, mpi.node)
            yield  # pragma: no cover

        assert run_ranks(program, nranks=3) == [(0, 3, 0), (1, 3, 1), (2, 3, 2)]


class TestSubcommStatusTranslation:
    def test_status_source_is_comm_relative(self):
        """A side effect worth pinning: on split comms, Status.source must
        be the communicator rank, not the world rank."""
        def program(mpi):
            comm = mpi.comm_world
            sub = yield from comm.split(comm.rank % 2)
            # Odd world ranks 1,3 -> sub ranks 0,1.
            if comm.rank == 3:
                yield from sub.send("hello", dest=0, tag=1)
                return None
            if comm.rank == 1:
                data, status = yield from sub.recv(source=1, tag=1)
                return (data, status.source, status.source_world)
            return None

        results = run_ranks(program, nranks=4)
        assert results[1] == ("hello", 1, 3)
