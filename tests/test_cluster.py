"""Tests for cluster configuration, construction and the MPIWorld runner."""

import pytest

from repro.cluster import (
    ClusterConfig,
    MPIWorld,
    NodeSpec,
    cluster_of_clusters,
    paper_cluster,
    smp_node_cluster,
    two_node_cluster,
)
from repro.errors import ConfigurationError, DeadlockError
from repro.mpi.devices.ch_p4 import ChP4Device
from repro.mpi.devices.ch_mad import ChMadDevice
from repro.sim.coroutines import sleep
from repro.units import ms, us


class TestNodeSpec:
    def test_defaults(self):
        node = NodeSpec("n")
        assert node.networks == ("tcp",)
        assert node.processes == 1

    def test_zero_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec("n", processes=0)

    def test_duplicate_networks_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeSpec("n", networks=("tcp", "tcp"))


class TestClusterConfig:
    def test_world_size_and_rank_mapping(self):
        config = ClusterConfig(nodes=[
            NodeSpec("a", processes=2),
            NodeSpec("b", processes=1),
            NodeSpec("c", processes=3),
        ])
        assert config.world_size == 6
        assert config.node_of_rank() == [0, 0, 1, 2, 2, 2]

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=[NodeSpec("a")], device="ch_quantum")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=[])

    def test_ch_p4_requires_tcp(self):
        with pytest.raises(ConfigurationError, match="TCP"):
            ClusterConfig(nodes=[NodeSpec("a", networks=("sisci",)),
                                 NodeSpec("b", networks=("sisci",))],
                          device="ch_p4")


class TestCannedConfigs:
    def test_two_node_active_network_validation(self):
        with pytest.raises(ValueError):
            two_node_cluster(networks=("sisci",), active_network="bip")

    def test_two_node_preference_ordering(self):
        config = two_node_cluster(networks=("sisci", "tcp"),
                                  active_network="tcp")
        assert config.channel_preference == ("tcp", "sisci")

    def test_paper_cluster_shape(self):
        config = paper_cluster(nodes=3, processes_per_node=2)
        assert config.world_size == 6

    def test_smp_cluster(self):
        config = smp_node_cluster(nodes=2, processes_per_node=2)
        assert config.world_size == 4
        assert config.node_of_rank() == [0, 0, 1, 1]

    def test_cluster_of_clusters_boards(self):
        config = cluster_of_clusters(sci_nodes=2, myrinet_nodes=1)
        networks = [set(n.networks) for n in config.nodes]
        assert networks == [{"tcp", "sisci"}, {"tcp", "sisci"},
                            {"tcp", "bip"}]

    def test_cluster_of_clusters_without_ethernet(self):
        config = cluster_of_clusters(ethernet_everywhere=False)
        assert all("tcp" not in n.networks for n in config.nodes)


class TestMPIWorldConstruction:
    def test_devices_installed_by_locality(self):
        world = MPIWorld(smp_node_cluster(nodes=2, processes_per_node=2))
        for env in world.envs:
            assert env.self_device is not None
            assert env.smp_device is not None
            assert isinstance(env.inter_device, ChMadDevice)

    def test_single_process_nodes_have_no_smp_device(self):
        world = MPIWorld(two_node_cluster())
        for env in world.envs:
            assert env.smp_device is None

    def test_single_node_world_has_no_inter_device(self):
        world = MPIWorld(smp_node_cluster(nodes=1, processes_per_node=2))
        for env in world.envs:
            assert env.inter_device is None

    def test_ch_p4_world(self):
        world = MPIWorld(two_node_cluster(networks=("tcp",), device="ch_p4"))
        for env in world.envs:
            assert isinstance(env.inter_device, ChP4Device)
        # ch_p4 devices form a full mesh over ONE shared world map
        # (a private copy per device was O(ranks^2) memory); self-sends
        # never consult it — device selection routes them to ch_self.
        first = world.envs[0].inter_device
        assert first._peers.keys() == {0, 1}
        assert all(env.inter_device._peers is first._peers
                   for env in world.envs)
        with pytest.raises(ConfigurationError):
            first._peer(0)
        assert first._peer(1) is world.envs[1].inter_device

    def test_one_madeleine_channel_per_protocol(self):
        world = MPIWorld(two_node_cluster(networks=("sisci", "tcp")))
        assert set(world.session.channels) == {"sisci", "tcp"}

    def test_comm_world_shape(self):
        world = MPIWorld(paper_cluster(nodes=3))
        for i, env in enumerate(world.envs):
            assert env.comm_world.rank == i
            assert env.comm_world.size == 3


class TestMPIWorldRun:
    def test_results_in_rank_order(self):
        world = MPIWorld(paper_cluster(nodes=3))

        def program(mpi):
            yield from mpi.comm_world.barrier()
            return mpi.rank * 2

        assert world.run(program) == [0, 2, 4]

    def test_exception_in_program_propagates(self):
        world = MPIWorld(two_node_cluster())

        def program(mpi):
            yield from mpi.comm_world.barrier()
            if mpi.rank == 1:
                raise RuntimeError("application bug")

        with pytest.raises(RuntimeError, match="application bug"):
            world.run(program)

    def test_max_events_deadlock_guard(self):
        world = MPIWorld(two_node_cluster(networks=("tcp",)))

        def program(mpi):
            # A livelock: the mains never finish and never block.
            while True:
                yield sleep(us(1))

        with pytest.raises(DeadlockError, match="max_events"):
            world.run(program, max_events=50_000)

    @pytest.mark.parametrize("networks", [("tcp",), ("sisci", "tcp")])
    def test_recv_cycle_under_idle_pollers_is_diagnosed(self, networks):
        """Both ranks receive first.  The tcp pollers tick forever, so
        the queue never drains, but nothing else is left to run: the
        hang is diagnosed at the first batch boundary (4096 events, plus
        the zero-delay dispatches the last tick left), without
        max_events."""
        world = MPIWorld(two_node_cluster(networks=networks))

        def program(mpi):
            yield from mpi.comm_world.recv(source=1 - mpi.rank)

        with pytest.raises(DeadlockError, match="idle pollers") as excinfo:
            world.run(program)
        assert excinfo.value.cycle == [0, 1]
        assert world.engine.events_executed < 4096 + 16

    def test_a_sleeping_sender_is_not_a_hang(self):
        world = MPIWorld(two_node_cluster(networks=("tcp",)))

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield sleep(ms(10))
                yield from comm.send("late", dest=1)
                return None
            data, _ = yield from comm.recv(source=0)
            return data

        assert world.run(program) == [None, "late"]

    def test_shutdown_is_idempotent(self):
        world = MPIWorld(two_node_cluster())

        def program(mpi):
            yield from mpi.comm_world.barrier()

        world.run(program)
        world.shutdown()
        world.shutdown()

    def test_polling_threads_stopped_after_run(self):
        world = MPIWorld(two_node_cluster(networks=("sisci", "tcp")))

        def program(mpi):
            yield from mpi.comm_world.barrier()

        world.run(program)
        for env in world.envs:
            assert env.process.runtime.live_threads() == []
