"""The collective-algorithm selection API.

Covers the registry itself (lookup, registration errors, selection-string
parsing), the resolution precedence (per call > engine config >
default), the ``split_type`` node decomposition, ch_mad lane steering,
and the performance claim the node-aware family exists for:
hierarchical allreduce beats the flat default on a multirail SMP
cluster.
"""

import numpy as np
import pytest

from repro.cluster import EngineConfig, MPIWorld, multirail_smp_cluster
from repro.errors import ConfigurationError, MPICommError
from repro.mpi import coll
from repro.mpi.coll import flat
from repro.mpi.constants import COMM_TYPE_SHARED, UNDEFINED
from repro.mpi.reduce_ops import SUM
from repro.sim.engine import install_instrumentation
from tests.helpers import linear_cluster

SMP = dict(nodes=2, processes_per_node=2, rails=2)


# ---------------------------------------------------------------------------
# registry mechanics
# ---------------------------------------------------------------------------

def test_registry_lookup_and_names():
    hier = coll.get("allreduce", "hier")
    assert hier.operation == "allreduce" and hier.name == "hier"
    for operation in coll.OPERATIONS:
        assert "default" in coll.names(operation)
    assert "hier" in coll.names("barrier")
    assert "multilane" in coll.names("allgather")
    assert coll.operations_with("multilane") == \
        ["bcast", "allreduce", "allgather"]


def test_registry_rejects_unknowns_and_duplicates():
    with pytest.raises(ConfigurationError, match="no 'bcast' algorithm"):
        coll.get("bcast", "nope")
    with pytest.raises(ConfigurationError, match="unknown collective"):
        coll.register("frobnicate", "x", flat.bcast)
    with pytest.raises(ConfigurationError, match="already registered"):
        coll.register("bcast", "default", flat.bcast)


def test_defaults_are_the_exact_flat_callables():
    # The bit-identical guarantee for unselected runs hinges on this.
    for operation in coll.OPERATIONS:
        assert coll.get(operation, "default").fn \
            is getattr(flat, operation)


def test_parse_selection():
    assert coll.parse_selection("allreduce=multilane, bcast=binomial") == {
        "allreduce": "multilane", "bcast": "binomial"}
    # A bare name fans out to every operation registering it.
    hier = coll.parse_selection("hier")
    assert hier == {op: "hier" for op in
                    ("barrier", "bcast", "reduce", "allreduce", "allgather")}
    with pytest.raises(ConfigurationError, match="known names"):
        coll.parse_selection("bogus")
    with pytest.raises(ConfigurationError, match="no 'barrier' algorithm"):
        coll.parse_selection("barrier=multilane")


# ---------------------------------------------------------------------------
# resolution precedence
# ---------------------------------------------------------------------------

@pytest.fixture
def probes():
    """Two temporary allreduce algorithms that log their invocations."""
    calls = {"a": 0, "b": 0}

    def probe_a(comm, obj, op):
        calls["a"] += 1
        result = yield from flat.allreduce(comm, obj, op)
        return result

    def probe_b(comm, obj, op):
        calls["b"] += 1
        result = yield from flat.allreduce(comm, obj, op)
        return result

    coll.register("allreduce", "probe_a", probe_a)
    coll.register("allreduce", "probe_b", probe_b)
    try:
        yield calls
    finally:
        del coll.REGISTRY[("allreduce", "probe_a")]
        del coll.REGISTRY[("allreduce", "probe_b")]


def test_per_call_beats_engine(probes):
    config = EngineConfig(coll_algorithm="allreduce=probe_a")

    def program(mpi):
        comm = mpi.comm_world
        # Engine-wide selection applies when the call says nothing...
        yield from comm.allreduce(1, SUM)
        # ...and the per-call keyword overrides it.
        total = yield from comm.allreduce(2, SUM, algorithm="probe_b")
        return total

    results = MPIWorld(linear_cluster(2), config).run(program)
    assert results == [4, 4]
    # 2 ranks x (engine->a, per-call->b): any precedence break would
    # shift this split (all-engine: a=4; per-call ignored: b=0).
    assert probes == {"a": 2, "b": 2}


def test_engine_config_validates_at_apply_time():
    with pytest.raises(ConfigurationError, match="no 'allreduce'"):
        MPIWorld(linear_cluster(2),
                 EngineConfig(coll_algorithm="allreduce=nope"))


def test_global_hier_selection_runs_whole_stack():
    # Selecting "hier" globally must not recurse: the node/leader
    # machinery (dup/split/split_type) and the hierarchical phases
    # themselves run the flat defaults directly.
    config = EngineConfig(coll_algorithm="hier")

    def program(mpi):
        comm = mpi.comm_world
        total = yield from comm.allreduce(comm.rank + 1, SUM)
        word = yield from comm.bcast("go" if comm.rank == 1 else None,
                                     root=1)
        yield from comm.barrier()
        everyone = yield from comm.allgather(comm.rank)
        return (total, word, tuple(everyone))

    results = MPIWorld(multirail_smp_cluster(**SMP), config).run(program)
    assert results == [(10, "go", (0, 1, 2, 3))] * 4


# ---------------------------------------------------------------------------
# split_type
# ---------------------------------------------------------------------------

def test_split_type_shared_groups_by_node():
    def program(mpi):
        comm = mpi.comm_world
        node_comm = yield from comm.split_type(COMM_TYPE_SHARED)
        peers = yield from node_comm.allgather(comm.rank)
        return (node_comm.size, tuple(peers))

    results = MPIWorld(multirail_smp_cluster(**SMP)).run(program)
    # Ranks 0,1 share node n0; ranks 2,3 share n1.
    assert results == [(2, (0, 1)), (2, (0, 1)), (2, (2, 3)), (2, (2, 3))]


def test_split_type_undefined_and_key_and_errors():
    def program(mpi):
        comm = mpi.comm_world
        nothing = yield from comm.split_type(UNDEFINED)
        assert nothing is None
        # key reverses the intra-node rank order.
        node_comm = yield from comm.split_type(key=-comm.rank)
        first = yield from node_comm.bcast(comm.rank, root=0)
        with pytest.raises(MPICommError):
            yield from comm.split_type(split_type=1234)
        return (node_comm.rank, first)

    results = MPIWorld(multirail_smp_cluster(**SMP)).run(program)
    # Highest world rank on each node became node rank 0.
    assert results == [(1, 1), (0, 1), (1, 3), (0, 3)]


# ---------------------------------------------------------------------------
# lane steering (ch_mad)
# ---------------------------------------------------------------------------

def test_direct_port_lane_rotation():
    def program(mpi):
        comm = mpi.comm_world
        device = comm.env.inter_device
        dest = 2 if comm.rank < 2 else 0  # someone off-node
        assert device.lane_count(dest) == 2
        lane0 = device.direct_port(dest, lane=0)
        lane1 = device.direct_port(dest, lane=1)
        assert lane0.channel.protocol != lane1.channel.protocol
        # Lanes beyond the rail count fold back, so width degradation
        # (a dead rail) never strands a lane.
        assert device.direct_port(dest, lane=2) is lane0
        # No lane argument preserves the classic single-rail selection.
        assert device.direct_port(dest) is lane0
        yield from comm.barrier()

    MPIWorld(multirail_smp_cluster(**SMP)).run(program)


def test_multilane_allreduce_uses_both_rails():
    world = MPIWorld(multirail_smp_cluster(
        nodes=2, processes_per_node=1, rails=2))
    instruments = install_instrumentation(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        data = np.arange(64.0) + comm.rank
        total = yield from comm.allreduce(data, SUM,
                                          algorithm="multilane")
        return tuple(total.tolist())

    results = world.run(program)
    expected = tuple((np.arange(64.0) * 2 + 1).tolist())
    assert results == [expected] * 2
    sends = {}
    for metric in instruments.metrics.collect():
        labels = dict(metric.labels)
        if metric.name == "chmad.packets" and labels.get("dir") == "send":
            key = labels["protocol"]
            sends[key] = sends.get(key, 0) + metric.value
    assert sends.get("sisci", 0) > 0 and sends.get("sisci#1", 0) > 0


# ---------------------------------------------------------------------------
# the performance claim
# ---------------------------------------------------------------------------

def test_hier_allreduce_beats_flat_on_smp_cluster():
    from repro.bench.collectives import collective_bench

    kwargs = dict(operation="allreduce", ranks=16, processes_per_node=2,
                  rails=2, size=65536, reps=1, warmup=1)
    flat = collective_bench(algorithm="default", **kwargs)
    hier = collective_bench(algorithm="hier", **kwargs)
    assert flat["checksum"] == hier["checksum"]
    assert hier["mean_ns"] < flat["mean_ns"]
