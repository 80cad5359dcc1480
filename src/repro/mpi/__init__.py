"""An MPICH-like MPI implementation (paper §2, §4).

Layering follows MPICH (Figure 1 of the paper):

- **Generic part** — :mod:`~repro.mpi.communicator` (groups, contexts,
  communicators), :mod:`~repro.mpi.coll` (collective algorithms built
  on point-to-point, and their registry), :mod:`~repro.mpi.datatypes`
  (the datatype engine).
- **ADI** — :mod:`~repro.mpi.adi`: request handles, posted/unexpected
  queues with envelope matching, eager/rendezvous protocol selection,
  and the abstract device interface.
- **Devices** — :mod:`~repro.mpi.devices`: ``ch_self`` (intra-process),
  ``smp_plug`` (intra-node shared memory), ``ch_p4`` (the classic MPICH
  TCP device, our baseline), and ``ch_mad`` (the paper's contribution:
  all inter-node traffic through Madeleine channels).

User programs are generator coroutines receiving an
:class:`~repro.mpi.environment.MPIEnv`; the API mirrors mpi4py's shape:
lowercase methods move Python objects, uppercase methods move numpy
buffers with MPI datatypes.

The surface is what the workloads, benchmarks and examples use:
point-to-point (blocking, non-blocking, synchronous, probe, cancel),
collectives, ``dup``/``split``/``split_type``, Cartesian and graph
topologies, one-sided windows and ULFM fault tolerance.  There are no
intercommunicators, persistent requests, ``MPI_Pack`` buffers,
buffered sends, ``waitany``-style completion sets, attribute caches or
group set operations (``benchmarks/perf/reach.py`` gates the surface).
"""

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED
from repro.mpi.datatypes import (
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    Datatype,
    contiguous,
    hvector,
    indexed,
    struct,
    vector,
)
from repro.mpi.environment import MPIEnv
from repro.mpi.group import Group
from repro.mpi.reduce_ops import (
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    Op,
)
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BOR",
    "BXOR",
    "BYTE",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "Group",
    "INT",
    "LAND",
    "LONG",
    "LOR",
    "MAX",
    "MAXLOC",
    "MIN",
    "MINLOC",
    "MPIEnv",
    "Op",
    "PROC_NULL",
    "PROD",
    "Request",
    "SUM",
    "Status",
    "UNDEFINED",
    "contiguous",
    "hvector",
    "indexed",
    "struct",
    "vector",
]
