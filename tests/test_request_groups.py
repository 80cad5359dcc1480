"""Tests for request-group operations (waitany/waitsome/testall/testany)."""

from repro.mpi.constants import UNDEFINED
from repro.mpi.request import Request
from tests.helpers import run_ranks


class TestWaitany:
    def test_returns_first_arrival(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2)]
                index, (data, _status) = yield from Request.waitany(reqs)
                other = yield from reqs[1 - index].wait()
                return (index, data, other[0])
            yield sleep(us(100))
            yield from comm.send("second-tag", dest=0, tag=2)
            yield sleep(us(300))
            yield from comm.send("first-tag", dest=0, tag=1)
            return None

        index, data, other = run_ranks(program)[0]
        assert index == 1 and data == "second-tag" and other == "first-tag"

    def test_immediate_when_already_complete(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(1, dest=1, tag=5)
                return None
            yield sleep(us(500))  # the message is already buffered
            req = comm.irecv(source=0, tag=5)
            index, (data, _) = yield from Request.waitany([req])
            return (index, data)

        assert run_ranks(program)[1] == (0, 1)

    def test_lowest_index_wins_ties(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2)]
                yield sleep(us(1500))  # both arrive before we look
                index, _ = yield from Request.waitany(reqs)
                for i, req in enumerate(reqs):
                    if i != index:
                        yield from req.wait()
                return index
            yield from comm.send("a", dest=0, tag=1)
            yield from comm.send("b", dest=0, tag=2)
            return None

        assert run_ranks(program)[0] == 0

    def test_pending_flags_keep_no_waiters_after_return(self):
        """A waitany loop draining 32 irecvs: each call takes its wake-up
        forwarders back from the flags that did not fire."""
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                pending = [comm.irecv(source=1, tag=t) for t in range(32)]
                leftovers = []
                while pending:
                    index, _ = yield from Request.waitany(pending)
                    del pending[index]
                    leftovers.append(sum(len(r._flag._waiters)
                                         for r in pending))
                return leftovers
            for t in reversed(range(32)):
                yield sleep(us(50))
                yield from comm.send(t, dest=0, tag=t)
            return None

        assert run_ranks(program)[0] == [0] * 32


class TestWaitsome:
    def test_collects_simultaneous_completions(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in range(3)]
                yield sleep(us(2000))  # let all three arrive
                completed = yield from Request.waitsome(reqs)
                return sorted(i for i, _ in completed)
            for t in range(3):
                yield from comm.send(t, dest=0, tag=t)
            return None

        assert run_ranks(program)[0] == [0, 1, 2]

    def test_returns_only_ready_subset(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2)]
                completed = yield from Request.waitsome(reqs)
                # Only tag 1 has arrived so far.
                indices = [i for i, _ in completed]
                yield from reqs[1].wait()
                return indices
            yield from comm.send("early", dest=0, tag=1)
            yield sleep(us(5000))
            yield from comm.send("late", dest=0, tag=2)
            return None

        assert run_ranks(program)[0] == [0]


class TestTestallTestany:
    def test_testall_partial_then_complete(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2)]
                flag_before, _ = Request.testall(reqs)
                while True:
                    flag, results = Request.testall(reqs)
                    if flag:
                        break
                    yield sleep(us(50))
                return (flag_before, [r[0] for r in results])
            yield from comm.send("a", dest=0, tag=1)
            yield from comm.send("b", dest=0, tag=2)
            return None

        flag_before, results = run_ranks(program)[0]
        assert flag_before is False
        assert results == ["a", "b"]

    def test_testany_transitions(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=1)
                before = Request.testany([req])
                assert before == (False, UNDEFINED, None)
                while True:
                    flag, index, result = Request.testany([req])
                    if flag:
                        break
                    yield sleep(us(50))
                return (index, result[0])
            yield from comm.send(42, dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == (0, 42)
