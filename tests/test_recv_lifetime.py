"""A finished receive is freed by reference counting alone.

Every receive is one :class:`~repro.mpi.adi.rhandle.RecvHandle`, which
is its own completion flag and, for a rendezvous, its own sync
structure: nothing points back at it.  So a received payload dies when
the program drops it, even with the cyclic garbage collector off, and a
run leaves no more cyclic garbage after 100 iterations than after 10.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

from repro.cluster import MPIWorld
from repro.mpi import SUM
from tests.helpers import linear_cluster


def _program(iterations: int, dead: list):
    def program(mpi):
        comm = mpi.comm_world
        for i in range(iterations):
            if comm.rank == 0:
                yield from comm.send(np.full(64, i, float), dest=1, tag=1)
                yield from comm.send(np.full(64, i, float), dest=1, tag=2)
                # ssend: the rendezvous protocol, whatever the size.
                yield from comm.ssend(np.full(64, i, float), dest=1, tag=3)
            else:
                request = comm.irecv(source=0, tag=1)
                eager_irecv, _ = yield from request.wait()
                del request
                eager_recv, _ = yield from comm.recv(source=0, tag=2)
                rndv_recv, _ = yield from comm.recv(source=0, tag=3)
                refs = [weakref.ref(eager_irecv), weakref.ref(eager_recv),
                        weakref.ref(rndv_recv)]
                del eager_irecv, eager_recv, rndv_recv
                dead.append([ref() is None for ref in refs])
            total = yield from comm.allreduce(np.full(8, i, float), SUM)
            del total
        return iterations

    return program


def _run(iterations: int) -> tuple[int, list]:
    """Run with the cyclic collector off; the unreachable objects the
    run left behind (the world itself stays reachable)."""
    dead: list = []
    world = MPIWorld(linear_cluster(2))
    gc.collect()
    gc.disable()
    try:
        assert world.run(_program(iterations, dead)) == [iterations] * 2
        return gc.collect(), dead
    finally:
        gc.enable()


def test_received_arrays_die_with_their_last_reference():
    _garbage, dead = _run(10)
    assert dead == [[True, True, True]] * 10


def test_receives_leave_no_cyclic_garbage():
    few, _ = _run(10)
    many, _ = _run(100)
    assert many == few
