"""Node-aware hierarchical collectives (chainermn-style two-level trees).

The cluster model knows which ranks share an SMP node (the smp_plug vs
ch_mad boundary); these algorithms exploit it by splitting every
collective into an intra-node phase over the cheap shared-memory device
and an inter-node phase among one *leader* per node over ch_mad:

- allreduce: intra-node reduce -> inter-node allreduce among leaders ->
  intra-node bcast (the classic hierarchical decomposition);
- bcast: root hands to its node leader -> leader bcast -> node bcast;
- barrier: node gather (arrival) -> leader barrier -> node bcast (release);
- allgather: node gather -> leader allgather -> node bcast.

The node/leader subcommunicators are derived once per communicator via
:meth:`~repro.mpi.communicator.Communicator.split_type` and cached; the
first hierarchical call on a communicator therefore pays the (collective)
setup cost and later calls reuse it.  The locality tables behind them
are computed once per group (:meth:`~repro.mpi.group.Group.locality`),
not once per rank.  All internal phases run the *flat default*
algorithms directly — resolving through the registry again would
recurse when a hierarchical algorithm is selected globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.mpi.reduce_ops import Op

from repro.mpi.coll import flat as _flat
from repro.mpi.coll.flat import _crecv, _csend, allreduce_recursive_doubling
from repro.mpi.coll.registry import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator
    from repro.mpi.group import Locality


@dataclass
class HierComms:
    """Cached two-level decomposition of one communicator."""

    #: All ranks of this communicator on my node (I am a member).
    node_comm: "Communicator"
    #: One leader per node (node_comm rank 0); None on non-leaders.
    leader_comm: "Communicator | None"
    #: The group's shared node tables: node of every rank, leader and
    #: leader index per node, contiguity (safe non-commutative folds).
    locality: "Locality"


def hier_comms(comm: "Communicator") -> Generator:
    """Build (or fetch) the node/leader decomposition of ``comm``.

    Collective: the first call must happen at the same point on every
    rank, which any hierarchical collective guarantees by construction.
    The tables (node of each rank, leaders, the node and leader groups)
    are the group's :class:`~repro.mpi.group.Locality`, built once per
    group and shared by every rank and every ``dup``; each rank only
    wraps them in its own communicators.
    """
    cached = getattr(comm, "_hier_cache", None)
    if cached is not None:
        return cached
    locality = comm.group.locality(comm.env.node_of_rank)
    node_comm = yield from comm.split_type()
    # Leader membership is locally derivable (lowest comm rank per node,
    # ordered by comm rank — the same order the old
    # ``comm.split(0/UNDEFINED, key=comm.rank)`` produced), so the
    # O(ranks^2)-message allgather inside MPI_Comm_split is dead weight
    # at 1000+ ranks.  Agree with a barrier and build the communicator
    # locally — the ``split_type()`` mechanism.
    from repro.mpi.communicator import Communicator
    yield from _flat.barrier(comm)
    context = comm.env.allocate_context()
    leader_comm = None
    if node_comm.rank == 0:
        leader_comm = Communicator(comm.env, locality.leader_group, context)
    cache = HierComms(node_comm, leader_comm, locality)
    comm._hier_cache = cache
    comm._derived_comms += tuple(sub for sub in (node_comm, leader_comm)
                                 if sub is not None)
    return cache


def bcast_hier(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """root -> its node leader -> all leaders -> intra-node fan-out."""
    _flat._check_root(comm, root)
    hier = yield from hier_comms(comm)
    tag = comm._coll_tag()  # every rank, in lockstep (even if unused)
    locality = hier.locality
    root_node = locality.node_of[root]
    root_leader = locality.leader_of_node[root_node]
    if root != root_leader:
        if comm.rank == root:
            yield from _csend(comm, obj, root_leader, tag)
        elif comm.rank == root_leader:
            obj = yield from _crecv(comm, root, tag)
    if hier.leader_comm is not None:
        obj = yield from _flat.bcast(hier.leader_comm, obj,
                                     locality.leader_index_of_node[root_node])
    obj = yield from _flat.bcast(hier.node_comm, obj, 0)
    return obj


def reduce_hier(comm: "Communicator", obj: Any, op: Op,
                root: int = 0) -> Generator:
    """Intra-node reduce -> leader reduce -> hand to ``root``."""
    _flat._check_root(comm, root)
    hier = yield from hier_comms(comm)
    if not op.commutative and not hier.locality.contiguous:
        # Scattered placement breaks rank-order folding; stay flat.
        result = yield from _flat.reduce(comm, obj, op, root)
        return result
    tag = comm._coll_tag()
    locality = hier.locality
    root_node = locality.node_of[root]
    root_leader = locality.leader_of_node[root_node]
    value = yield from _flat.reduce(hier.node_comm, obj, op, 0)
    if hier.leader_comm is not None:
        value = yield from _flat.reduce(
            hier.leader_comm, value, op,
            locality.leader_index_of_node[root_node])
    if root != root_leader:
        if comm.rank == root_leader:
            yield from _csend(comm, value, root, tag)
            value = None
        elif comm.rank == root:
            value = yield from _crecv(comm, root_leader, tag)
    return value if comm.rank == root else None


def allreduce_hier(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Intra-node reduce -> inter-node allreduce -> intra-node bcast.

    The inter-node phase among leaders uses recursive doubling: log2(n)
    wire latencies instead of reduce+bcast's 2*log2(n), which is where
    the hierarchy beats the flat default (the intra-node phases ride the
    cheap smp_plug device).  Non-commutative operators fall back inside
    recursive doubling (contiguous placement keeps leader order = rank
    order, so the folds stay rank-ordered either way).
    """
    hier = yield from hier_comms(comm)
    if not op.commutative and not hier.locality.contiguous:
        result = yield from _flat.allreduce(comm, obj, op)
        return result
    value = yield from _flat.reduce(hier.node_comm, obj, op, 0)
    if hier.leader_comm is not None:
        value = yield from allreduce_recursive_doubling(
            hier.leader_comm, value, op)
    value = yield from _flat.bcast(hier.node_comm, value, 0)
    return value


def barrier_hier(comm: "Communicator") -> Generator:
    """Arrival gather per node, leader barrier, intra-node release."""
    hier = yield from hier_comms(comm)
    yield from _flat.gather(hier.node_comm, None, 0)
    if hier.leader_comm is not None:
        yield from _flat.barrier(hier.leader_comm)
    yield from _flat.bcast(hier.node_comm, None, 0)


def allgather_hier(comm: "Communicator", obj: Any) -> Generator:
    """Node gather -> leader allgather -> intra-node bcast."""
    hier = yield from hier_comms(comm)
    mine = (comm.rank, obj)
    local = yield from _flat.gather(hier.node_comm, mine, 0)
    out = None
    if hier.leader_comm is not None:
        groups = yield from _flat.allgather(hier.leader_comm, local)
        out = [None] * comm.size
        for group in groups:
            for rank, value in group:
                out[rank] = value
    out = yield from _flat.bcast(hier.node_comm, out, 0)
    return out


register("bcast", "hier", bcast_hier,
         "root -> node leader -> leader bcast -> node bcast")
register("reduce", "hier", reduce_hier,
         "node reduce -> leader reduce -> root")
register("allreduce", "hier", allreduce_hier,
         "node reduce -> leader allreduce -> node bcast")
register("barrier", "hier", barrier_hier,
         "node gather -> leader barrier -> node release")
register("allgather", "hier", allgather_hier,
         "node gather -> leader allgather -> node bcast")
