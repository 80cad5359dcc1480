"""Set-up is O(ranks) per world and a torn-down world is freed.

Host work is pinned by counts, not by time: the world build reads the
cluster's node map once, and the locality tables behind ``split_type``
and the hierarchical collectives are built once per group and shared by
every rank (and every ``dup``).  The tables must equal the per-rank
formulas they replace, for contiguous and scattered placements.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster import MPIWorld
from repro.cluster.config import multirail_smp_cluster
from repro.cluster.node import ClusterConfig
from repro.mpi import SUM
from repro.mpi import group as group_mod
from repro.mpi.coll.hierarchical import hier_comms
from repro.mpi.group import Group
from repro.workloads import get as get_workload


def test_world_build_reads_the_node_map_once(monkeypatch):
    calls = []
    original = ClusterConfig.node_of_rank

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(ClusterConfig, "node_of_rank", counted)
    world = MPIWorld(multirail_smp_cluster(16, 4))
    assert world.world_size == 64
    assert len(calls) == 1


def _reference(world_ranks, node_of_rank):
    """The per-rank formulas ``split_type`` and ``hier_comms`` used."""
    group = Group(world_ranks)
    size = group.size
    node_of = tuple(node_of_rank[group.world_rank(r)] for r in range(size))
    leader_of_node: dict[int, int] = {}
    for rank, node in enumerate(node_of):
        leader_of_node.setdefault(node, rank)
    leader_ranks = sorted(leader_of_node.values())
    return {
        "node_of": node_of,
        "node_groups": {
            node: tuple(group.world_rank(r) for r in range(size)
                        if node_of_rank[group.world_rank(r)] == node)
            for node in set(node_of)},
        "leader_of_node": leader_of_node,
        "leader_index_of_node": {node: leader_ranks.index(rank)
                                 for node, rank in leader_of_node.items()},
        "leader_group": tuple(group.world_rank(r) for r in leader_ranks),
        "contiguous": all(node_of[i] <= node_of[i + 1]
                          for i in range(size - 1)),
    }


@pytest.mark.parametrize("world_ranks", [
    list(range(12)),                                  # contiguous
    [7, 0, 11, 4, 1, 9, 2, 6, 10, 3, 8, 5],           # scattered
], ids=["contiguous", "scattered"])
def test_locality_equals_the_per_rank_formulas(world_ranks):
    node_of_rank = tuple(r // 3 for r in range(12))   # 4 nodes x 3
    locality = Group(world_ranks).locality(node_of_rank)
    expected = _reference(world_ranks, node_of_rank)
    assert locality.node_of == expected["node_of"]
    assert {node: g.world_ranks for node, g in
            locality.node_groups.items()} == expected["node_groups"]
    assert locality.leader_of_node == expected["leader_of_node"]
    assert list(locality.leader_of_node) == list(expected["leader_of_node"])
    assert locality.leader_index_of_node == expected["leader_index_of_node"]
    assert locality.leader_group.world_ranks == expected["leader_group"]
    assert locality.contiguous == expected["contiguous"]
    assert locality.contiguous is (world_ranks == sorted(world_ranks))


def test_locality_is_cached_per_group_and_node_map():
    group = Group(range(8))
    node_of_rank = tuple(r // 2 for r in range(8))
    first = group.locality(node_of_rank)
    assert group.locality(node_of_rank) is first
    # Another world's map (a different tuple) gets its own tables.
    other = group.locality(tuple(r // 4 for r in range(8)))
    assert other is not first and len(other.node_groups) == 2


def test_hier_tables_built_once_per_group(monkeypatch):
    built = []
    original = group_mod.Locality.__init__

    def counted(self, group, node_of_rank):
        built.append(group)
        original(self, group, node_of_rank)

    monkeypatch.setattr(group_mod.Locality, "__init__", counted)
    seen = []

    def program(mpi):
        comm = mpi.comm_world
        dup = yield from comm.dup()
        total = 0
        for c in (comm, dup):
            total += yield from c.allreduce(comm.rank, SUM, algorithm="hier")
            hier = yield from hier_comms(c)
            seen.append((mpi.rank, hier))
        return total

    world = MPIWorld(multirail_smp_cluster(4, 4, rails=1))
    assert world.run(program) == [2 * sum(range(16))] * 16
    assert len(built) == 1 and built[0] is world.envs[0].comm_world.group
    node_of_rank = world.envs[0].node_of_rank
    for rank, hier in seen:
        # One shared table per group, and each rank's node communicator
        # is that node's members in rank order.
        assert hier.locality is seen[0][1].locality
        members = [r for r in range(16)
                   if node_of_rank[r] == node_of_rank[rank]]
        assert list(hier.node_comm.group.world_ranks) == members
        if hier.leader_comm is not None:
            assert hier.leader_comm.group.world_ranks == (0, 4, 8, 12)


def test_torn_down_world_leaves_no_cyclic_garbage():
    """After ``run`` the world's pollers are freed by reference counting
    alone (a ch_mad poller used to stay in a cycle with its thread)."""
    config, program = get_workload("ml_training").instantiate(
        0, {"ranks": 16, "processes_per_node": 4, "rails": 2})
    world = MPIWorld(config)
    gc.collect()
    gc.disable()
    try:
        world.run(program)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert world.world_size == 16
