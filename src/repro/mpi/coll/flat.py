"""Flat (topology-blind) collective algorithms (MPICH's "generic part",
Fig. 1).

Everything is built on point-to-point over the communicator's hidden
collective context, with a per-invocation tag so consecutive collectives
never cross-match.  The per-operation defaults are the classic MPICH
choices:

- barrier: dissemination (log2 rounds);
- bcast / reduce: binomial trees (reduce preserves rank order, so
  non-commutative operations are safe);
- allreduce: reduce-to-root + broadcast;
- gather / scatter: linear (root-centric);
- allgather: ring (size-1 steps);
- alltoall: pairwise sendrecv rotation;
- reduce_scatter: alltoall + local fold; scan / exscan: linear chain.

Next to them lives the classic zoo:

- broadcast: linear (root sends size-1 messages) vs binomial tree;
- allreduce: reduce+bcast vs recursive doubling;
- allgather: ring vs Bruck's algorithm (log rounds, large messages).

All variants are drop-in equivalent to the defaults — the equivalence is
property-tested — and differ only in message schedule, hence in cost.
The hierarchical and multi-lane families, and the communicator
machinery (dup/split/split_type), call these functions directly, never
through the registry, so a run-wide selection cannot recurse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.errors import MPIError, MPIRankError
from repro.mpi import point2point as _p2p
from repro.mpi.reduce_ops import Op

from repro.mpi.coll.registry import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


def _check_root(comm: "Communicator", root: int) -> None:
    if not 0 <= root < comm.size:
        raise MPIRankError(f"root {root} out of range for size {comm.size}")


def _csend(comm: "Communicator", obj: Any, dest: int, tag: int) -> Generator:
    yield from _p2p.send_impl(comm, obj, dest, tag, None,
                              comm.collective_context)


def _crecv(comm: "Communicator", source: int, tag: int) -> Generator:
    request = _p2p.irecv_impl(comm, source, tag, None,
                              comm.collective_context)
    data, _status = yield from _p2p.recv_wait(comm, request)
    return data


def _csendrecv(comm: "Communicator", obj: Any, dest: int, source: int,
               tag: int) -> Generator:
    send_req = _p2p.isend_impl(comm, obj, dest, tag, None,
                               comm.collective_context)
    data = yield from _crecv(comm, source, tag)
    yield from send_req.wait()
    return data


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def barrier(comm: "Communicator") -> Generator:
    """Dissemination barrier: ceil(log2(size)) rounds of sendrecv."""
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    distance = 1
    while distance < size:
        dest = (rank + distance) % size
        source = (rank - distance) % size
        yield from _csendrecv(comm, None, dest, source, tag)
        distance *= 2


# ---------------------------------------------------------------------------
# broadcast (binomial tree, linear)
# ---------------------------------------------------------------------------

def bcast(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """Broadcast ``obj`` from ``root``; evaluates to the object on every
    rank."""
    _check_root(comm, root)
    tag = comm._coll_tag()
    size = comm.size
    if size == 1:
        return obj
    relative = (comm.rank - root) % size
    # Receive from the parent: the rank with our lowest set bit cleared.
    mask = 1
    while mask < size:
        if relative & mask:
            parent = relative - mask
            obj = yield from _crecv(comm, (parent + root) % size, tag)
            break
        mask *= 2
    # Forward to children below our lowest set bit, farthest first.
    mask //= 2
    while mask > 0:
        child = relative + mask
        if child < size:
            yield from _csend(comm, obj, (child + root) % size, tag)
        mask //= 2
    return obj


def bcast_linear(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """Root sends to every rank in turn: O(size) root-serialized sends.

    Optimal for tiny worlds or when only the root has the NIC warm;
    loses badly to the binomial tree as size grows.
    """
    tag = comm._coll_tag()
    if comm.rank == root:
        for dest in range(comm.size):
            if dest != root:
                yield from _csend(comm, obj, dest, tag)
        return obj
    received = yield from _crecv(comm, root, tag)
    return received


# ---------------------------------------------------------------------------
# reduce (binomial tree, rank-order preserving) / allreduce
# ---------------------------------------------------------------------------

def reduce(comm: "Communicator", obj: Any, op: Op, root: int = 0) -> Generator:
    """Reduce to ``root``; evaluates to the result at root, None elsewhere.

    The binomial combine keeps contributions in contiguous rank segments,
    so ``op`` need not be commutative.
    """
    _check_root(comm, root)
    tag = comm._coll_tag()
    size = comm.size
    if size == 1:
        return obj
    relative = (comm.rank - root) % size
    value = obj
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative & ~mask) % size
            yield from _csend(comm, value, (parent + root) % size, tag)
            break
        partner = relative | mask
        if partner < size:
            higher = yield from _crecv(comm, (partner + root) % size, tag)
            # partner's segment follows ours in rank order.
            value = op(value, higher)
        mask *= 2
    return value if comm.rank == root else None


def allreduce(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Reduce + broadcast; evaluates to the result on every rank."""
    value = yield from reduce(comm, obj, op, root=0)
    value = yield from bcast(comm, value, root=0)
    return value


def allreduce_recursive_doubling(comm: "Communicator", obj: Any,
                                 op: Op) -> Generator:
    """Recursive doubling: log2(p) exchange rounds, all ranks finish with
    the result simultaneously.

    Non-power-of-two worlds first fold the surplus ranks onto partners
    (the MPICH pre/post phase).  Requires a commutative operator; falls
    back to the default reduce+bcast otherwise.
    """
    if not op.commutative:
        result = yield from allreduce(comm, obj, op)
        return result
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    value = obj
    new_rank = -1
    # Pre-phase: ranks [0, 2*rem) pair up; odd members fold into even.
    if rank < 2 * rem:
        if rank % 2:  # odd: send and retire
            yield from _csend(comm, value, rank - 1, tag)
        else:
            incoming = yield from _crecv(comm, rank + 1, tag)
            value = op(value, incoming)
            new_rank = rank // 2
    else:
        new_rank = rank - rem
    # Core: recursive doubling among pof2 virtual ranks.
    if new_rank >= 0:
        mask = 1
        while mask < pof2:
            partner_virtual = new_rank ^ mask
            partner = (partner_virtual * 2 if partner_virtual < rem
                       else partner_virtual + rem)
            incoming = yield from _csendrecv(comm, value, partner, partner,
                                             tag)
            value = op(value, incoming)
            mask *= 2
    # Post-phase: even members hand results back to the retired odds.
    if rank < 2 * rem:
        if rank % 2:
            value = yield from _crecv(comm, rank - 1, tag)
        else:
            yield from _csend(comm, value, rank + 1, tag)
    return value


# ---------------------------------------------------------------------------
# gather / scatter (linear)
# ---------------------------------------------------------------------------

def gather(comm: "Communicator", obj: Any, root: int = 0) -> Generator:
    """Evaluates to the rank-ordered list at root, None elsewhere."""
    _check_root(comm, root)
    tag = comm._coll_tag()
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = obj
        for source in range(comm.size):
            if source != root:
                out[source] = yield from _crecv(comm, source, tag)
        return out
    yield from _csend(comm, obj, root, tag)
    return None


def scatter(comm: "Communicator", objs: Sequence[Any] | None,
            root: int = 0) -> Generator:
    """Evaluates to this rank's element of root's sequence."""
    _check_root(comm, root)
    tag = comm._coll_tag()
    if comm.rank == root:
        if objs is None or len(objs) != comm.size:
            raise MPIError(
                f"scatter root needs a sequence of exactly {comm.size} items"
            )
        for dest in range(comm.size):
            if dest != root:
                yield from _csend(comm, objs[dest], dest, tag)
        return objs[root]
    item = yield from _crecv(comm, root, tag)
    return item


# ---------------------------------------------------------------------------
# allgather (ring, Bruck) / alltoall (pairwise) / reduce_scatter
# ---------------------------------------------------------------------------

def allgather(comm: "Communicator", obj: Any) -> Generator:
    """Evaluates to the rank-ordered list of contributions on every rank."""
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    out: list[Any] = [None] * size
    out[rank] = obj
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry = obj
    for step in range(size - 1):
        carry = yield from _csendrecv(comm, carry, right, left, tag)
        out[(rank - step - 1) % size] = carry
    return out


def allgather_bruck(comm: "Communicator", obj: Any) -> Generator:
    """Bruck's allgather: ceil(log2(p)) rounds of doubling block
    exchanges — fewer, larger messages than the ring for small payloads.
    """
    tag = comm._coll_tag()
    size, rank = comm.size, comm.rank
    blocks: list[Any] = [obj]
    distance = 1
    while distance < size:
        dest = (rank - distance) % size
        source = (rank + distance) % size
        want = min(distance, size - distance)
        incoming = yield from _csendrecv(comm, blocks[:want], dest, source,
                                         tag)
        blocks.extend(incoming)
        distance *= 2
    blocks = blocks[:size]
    # blocks[i] currently holds rank (rank + i) % size's contribution.
    out: list[Any] = [None] * size
    for i, item in enumerate(blocks):
        out[(rank + i) % size] = item
    return out


def alltoall(comm: "Communicator", objs: Sequence[Any]) -> Generator:
    """Evaluates to the list where item i came from rank i's ``objs[rank]``.

    Object payloads carry their own sizes, so this is also MPI_Alltoallv.
    """
    size, rank = comm.size, comm.rank
    if len(objs) != size:
        raise MPIError(f"alltoall needs exactly {size} items, got {len(objs)}")
    tag = comm._coll_tag()
    out: list[Any] = [None] * size
    out[rank] = objs[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        out[source] = yield from _csendrecv(comm, objs[dest], dest, source, tag)
    return out


def reduce_scatter(comm: "Communicator", objs: Sequence[Any],
                   op: Op) -> Generator:
    """Reduce ``size`` contributions elementwise across ranks, then
    scatter: rank i gets op-reduction of every rank's ``objs[i]``
    (MPI_Reduce_scatter_block over objects)."""
    size = comm.size
    if len(objs) != size:
        raise MPIError(f"reduce_scatter needs exactly {size} items")
    # Classic small-comm algorithm: reduce each slot to its owner.
    # Implemented as alltoall + local fold (pairwise-exchange friendly).
    contributions = yield from alltoall(comm, list(objs))
    return op.reduce_sequence(contributions)


# ---------------------------------------------------------------------------
# scan / exscan (linear chains)
# ---------------------------------------------------------------------------

def scan(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Inclusive prefix reduction; evaluates to op(v0, ..., v_rank)."""
    tag = comm._coll_tag()
    value = obj
    if comm.rank > 0:
        prefix = yield from _crecv(comm, comm.rank - 1, tag)
        value = op(prefix, obj)
    if comm.rank < comm.size - 1:
        yield from _csend(comm, value, comm.rank + 1, tag)
    return value


def exscan(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Exclusive prefix reduction; None at rank 0."""
    tag = comm._coll_tag()
    prefix = None
    if comm.rank > 0:
        prefix = yield from _crecv(comm, comm.rank - 1, tag)
    if comm.rank < comm.size - 1:
        outgoing = obj if prefix is None else op(prefix, obj)
        yield from _csend(comm, outgoing, comm.rank + 1, tag)
    return prefix


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

register("barrier", "default", barrier, "dissemination (log2 rounds)")
register("bcast", "default", bcast, "binomial tree")
register("reduce", "default", reduce, "binomial tree (rank-order preserving)")
register("allreduce", "default", allreduce, "reduce-to-root + bcast")
register("gather", "default", gather, "linear, root-centric")
register("scatter", "default", scatter, "linear, root-centric")
register("allgather", "default", allgather, "ring (size-1 steps)")
register("alltoall", "default", alltoall, "pairwise sendrecv rotation")

register("bcast", "linear", bcast_linear, "root sends size-1 messages")
register("bcast", "binomial", bcast, "binomial tree (alias of default)")
register("allreduce", "reduce_bcast", allreduce,
         "reduce-to-root + bcast (alias of default)")
register("allreduce", "recursive_doubling", allreduce_recursive_doubling,
         "log2(p) exchange rounds; commutative ops only")
register("allgather", "ring", allgather, "ring (alias of default)")
register("allgather", "bruck", allgather_bruck,
         "ceil(log2(p)) doubling block exchanges")
