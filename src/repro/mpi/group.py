"""MPI process groups (MPI_Group)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import MPIRankError
from repro.mpi.constants import UNDEFINED

class Group:
    """An ordered set of world ranks."""

    def __init__(self, world_ranks: Sequence[int]):
        ranks = tuple(int(r) for r in world_ranks)
        if len(set(ranks)) != len(ranks):
            raise MPIRankError(f"duplicate ranks in group: {ranks}")
        if any(r < 0 for r in ranks):
            raise MPIRankError(f"negative world rank in group: {ranks}")
        self.world_ranks = ranks
        #: Number of members (a plain attribute: every rank-bound check
        #: of every message reads it).
        self.size = len(ranks)
        #: Lazy world-rank -> group-rank index.  ``rank_of`` runs per
        #: *received message* (status translation), so ``tuple.index``'s
        #: O(size) scan made every receive O(ranks); the dict makes it
        #: O(1).  Built on first lookup so groups that are never queried
        #: (most subgroups) cost nothing.
        self._index: dict[int, int] | None = None
        #: ``(node_of_rank, Locality)`` of the last :meth:`locality` call.
        self._locality: tuple[tuple[int, ...], Locality] | None = None

    # -- introspection ---------------------------------------------------------

    def rank_of(self, world_rank: int) -> int:
        """Group rank of ``world_rank`` (UNDEFINED if absent).  O(1)."""
        index = self._index
        if index is None:
            index = self._index = {
                r: i for i, r in enumerate(self.world_ranks)
            }
        return index.get(world_rank, UNDEFINED)

    def world_rank(self, group_rank: int) -> int:
        """World rank of group member ``group_rank``."""
        if not 0 <= group_rank < self.size:
            raise MPIRankError(
                f"group rank {group_rank} out of range [0, {self.size})"
            )
        return self.world_ranks[group_rank]

    def locality(self, node_of_rank: tuple[int, ...]) -> "Locality":
        """Where the members live, under the world's ``node_of_rank`` map.

        Computed once per group and world map, then shared: every rank
        of a world holds the same world group (and ``dup`` keeps it),
        so ``split_type`` and the hierarchical collectives pay O(size)
        once per group instead of once per rank.
        """
        cached = self._locality
        if cached is None or cached[0] is not node_of_rank:
            cached = self._locality = (node_of_rank,
                                       Locality(self, node_of_rank))
        return cached[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Group {self.world_ranks}>"


class Locality:
    """Node placement of one group's members (group ranks throughout).

    Immutable once built and shared by every rank that asks; see
    :meth:`Group.locality`.
    """

    __slots__ = ("node_of", "node_groups", "leader_of_node",
                 "leader_index_of_node", "leader_group", "contiguous")

    def __init__(self, group: Group, node_of_rank: tuple[int, ...]):
        world_ranks = group.world_ranks
        #: Node index of every group rank.
        self.node_of = tuple(node_of_rank[r] for r in world_ranks)
        members: dict[int, list[int]] = {}
        for world_rank, node in zip(world_ranks, self.node_of):
            members.setdefault(node, []).append(world_rank)
        #: Node index -> the group of its members, in group-rank order
        #: (what MPI_Comm_split_type(COMM_TYPE_SHARED) gives that node).
        self.node_groups = {node: Group(ranks)
                            for node, ranks in members.items()}
        #: Node index -> its lowest group rank (the node's leader).
        self.leader_of_node: dict[int, int] = {}
        for rank, node in enumerate(self.node_of):
            self.leader_of_node.setdefault(node, rank)
        leaders = sorted(self.leader_of_node.values())
        position = {rank: index for index, rank in enumerate(leaders)}
        #: Node index -> its leader's rank among the leaders.
        self.leader_index_of_node = {
            node: position[rank] for node, rank in self.leader_of_node.items()
        }
        #: The leaders, in group-rank order.
        self.leader_group = Group([world_ranks[r] for r in leaders])
        #: True when members fill nodes in rank order, which makes the
        #: node-then-leader reduction order equal the rank order.
        self.contiguous = all(a <= b for a, b in zip(self.node_of,
                                                     self.node_of[1:]))
