"""Intercommunicators (MPI_Intercomm_create / MPI_Intercomm_merge).

An intercommunicator joins two disjoint groups: point-to-point ranks
refer to the *remote* group.  The classic use is coupling two
independently-spawned applications — on the paper's meta-clusters, the
natural shape is one intracommunicator per island joined by an
intercommunicator across the slow link.

Context agreement: the two sides may have allocated different numbers of
contexts, so the leaders exchange proposals over the peer communicator
and everyone reserves the maximum (the MPICH handshake, simplified).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import MPICommError, MPIRankError
from repro.mpi.communicator import Communicator
from repro.mpi.group import Group
from repro.mpi.reduce_ops import MAX


class Intercommunicator(Communicator):
    """A communicator whose sends/receives address the remote group."""

    def __init__(self, env, local_group: Group, remote_group: Group,
                 context_id: int, local_comm: Communicator):
        super().__init__(env, local_group, context_id)
        self.remote_group = remote_group
        #: The intracommunicator of the local side (used by merge()).
        self.local_comm = local_comm
        overlap = set(local_group.world_ranks) & set(remote_group.world_ranks)
        if overlap:
            raise MPICommError(
                f"intercommunicator groups overlap on world ranks {overlap}"
            )

    is_inter = True

    @property
    def remote_size(self) -> int:
        return self.remote_group.size

    # -- rank translation: destinations/sources are remote ranks -------------

    def _dest_world(self, rank: int) -> int:
        return self.remote_group.world_rank(rank)

    def _source_world(self, rank: int) -> int:
        return self.remote_group.world_rank(rank)

    def _rank_of_world(self, world_rank: int) -> int:
        return self.remote_group.rank_of(world_rank)

    @property
    def _peer_size(self) -> int:
        return self.remote_group.size

    @property
    def _peer_group(self) -> Group:
        return self.remote_group

    # -- collectives: only merge is provided (MPI-1 scope) ---------------------

    def _no_collectives(self, *args: Any, **kwargs: Any):
        raise MPICommError(
            "collective operations on intercommunicators are not supported; "
            "merge() to an intracommunicator first"
        )
        yield  # pragma: no cover

    barrier = bcast = reduce = allreduce = gather = scatter = _no_collectives
    allgather = alltoall = scan = exscan = _no_collectives

    def merge(self, high: bool = False) -> Generator:
        """Collective over both groups: fuse into one intracommunicator
        (MPI_Intercomm_merge).  The ``high`` side's ranks come second;
        both sides must pass opposite values (or at least one consistent
        ordering emerges from the low side's choice).
        """
        # Agree on a fresh context across both sides: local max via the
        # local intracomm, leader exchange over the intercommunicator.
        proposal = self.env._next_context
        local_max = yield from self.local_comm.allreduce(proposal, op=MAX)
        if self.local_comm.rank == 0:
            remote_max, _ = yield from self.sendrecv(
                local_max, dest=0, sendtag=_MERGE_TAG, source=0,
                recvtag=_MERGE_TAG)
            agreed = max(local_max, remote_max)
            remote_high, _ = yield from self.sendrecv(
                high, dest=0, sendtag=_MERGE_TAG + 1, source=0,
                recvtag=_MERGE_TAG + 1)
            if remote_high == high:
                # Tie: the group with the lower leading world rank is low.
                ours = self.group.world_ranks[0]
                theirs = self.remote_group.world_ranks[0]
                effective_high = ours > theirs
            else:
                effective_high = high
            agreed = (agreed, effective_high)
        else:
            agreed = None
        agreed, effective_high = (yield from self.local_comm.bcast(
            agreed, root=0))
        self.env.reserve_context(agreed)
        if effective_high:
            ranks = self.remote_group.world_ranks + self.group.world_ranks
        else:
            ranks = self.group.world_ranks + self.remote_group.world_ranks
        return Communicator(self.env, Group(ranks), agreed)


_CREATE_TAG = 2_000_000 % (2**20)  # inside TAG_UB
_MERGE_TAG = _CREATE_TAG + 2


def create_intercomm(local_comm: Communicator, local_leader: int,
                     peer_comm: Communicator, remote_leader: int,
                     tag: int = _CREATE_TAG) -> Generator:
    """Collective over both local communicators: build the
    intercommunicator (MPI_Intercomm_create).

    ``peer_comm`` must contain both leaders (typically MPI_COMM_WORLD);
    ``remote_leader`` is the remote group's leader rank *in peer_comm*.
    """
    if not 0 <= local_leader < local_comm.size:
        raise MPIRankError(f"local leader {local_leader} out of range")
    env = local_comm.env
    # Local context proposal.
    proposal = env._next_context
    local_max = yield from local_comm.allreduce(proposal, op=MAX)
    # Leaders exchange (context proposal, group membership).
    if local_comm.rank == local_leader:
        payload = (local_max, local_comm.group.world_ranks)
        (remote_max, remote_ranks), _ = yield from peer_comm.sendrecv(
            payload, dest=remote_leader, sendtag=tag,
            source=remote_leader, recvtag=tag)
        info = (max(local_max, remote_max), remote_ranks)
    else:
        info = None
    context, remote_ranks = (yield from local_comm.bcast(info,
                                                         root=local_leader))
    env.reserve_context(context)
    return Intercommunicator(env, local_comm.group, Group(remote_ranks),
                             context, local_comm)
