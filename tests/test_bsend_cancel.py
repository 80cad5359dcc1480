"""Tests for receive cancellation (MPI_Cancel)."""

from tests.helpers import run_ranks


class TestCancel:
    def test_cancel_pending_recv(self):
        def program(mpi):
            comm = mpi.comm_world
            req = comm.irecv(source=1 - comm.rank, tag=9)
            assert req.cancel() is True
            data, status = yield from req.wait()
            yield from comm.barrier()
            return (data, status.cancelled)

        results = run_ranks(program)
        assert results == [(None, True), (None, True)]

    def test_cancel_after_match_fails(self):
        def program(mpi):
            from repro.sim.coroutines import sleep
            from repro.units import us
            comm = mpi.comm_world
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=1)
                yield sleep(us(800))  # the message lands and matches
                cancelled = req.cancel()
                data, status = yield from req.wait()
                return (cancelled, data, status.cancelled)
            yield from comm.send("made it", dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == (False, "made it", False)

    def test_cancelled_recv_does_not_steal_later_message(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                doomed = comm.irecv(source=1, tag=1)
                assert doomed.cancel()
                yield from doomed.wait()
                live = comm.irecv(source=1, tag=1)
                yield from comm.barrier()
                data, _ = yield from live.wait()
                return data
            yield from comm.barrier()
            yield from comm.send("for-the-living", dest=0, tag=1)
            return None

        assert run_ranks(program)[0] == "for-the-living"
