"""Tests for device selection, ch_self, smp_plug, ch_mad specifics."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    EngineConfig,
    MPIWorld,
    NodeSpec,
    smp_node_cluster,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, fabric_death
from repro.mpi.devices.ch_mad.switchpoints import SWITCH_POINTS, elect_threshold
from repro.mpi.request import Request
from repro.sim.coroutines import sleep
from repro.units import us
from tests.helpers import run_ranks, run_world


class TestThresholdElection:
    def test_sci_always_wins(self):
        assert elect_threshold({"sisci"}) == 8 * 1024
        assert elect_threshold({"sisci", "tcp"}) == 8 * 1024
        assert elect_threshold({"sisci", "bip"}) == 8 * 1024
        assert elect_threshold({"sisci", "bip", "tcp"}) == 8 * 1024

    def test_most_performant_otherwise(self):
        assert elect_threshold({"bip", "tcp"}) == 7 * 1024
        assert elect_threshold({"tcp"}) == 64 * 1024
        assert elect_threshold({"bip"}) == 7 * 1024

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            elect_threshold(set())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="quadrics"):
            elect_threshold({"quadrics"})

    def test_paper_values(self):
        # tcp/sisci/bip are the paper's Table 1 values; ib comes from the
        # MVAPICH-style rendezvous threshold of the RDMA extension.
        assert SWITCH_POINTS == {"tcp": 65536, "sisci": 8192, "bip": 7168,
                                 "ib": 16384}


class TestDeviceSelection:
    def test_locality_dispatch(self):
        """self -> ch_self, same node -> smp_plug, remote -> ch_mad."""
        def program(mpi):
            names = {}
            names["self"] = mpi.select_device(mpi.rank).name
            for other in range(mpi.size):
                if other == mpi.rank:
                    continue
                kind = ("same-node" if mpi.node_of_rank[other] == mpi.node
                        else "remote")
                names[kind] = mpi.select_device(other).name
            return names
            yield  # pragma: no cover

        results = run_world(program, smp_node_cluster(nodes=2,
                                                      processes_per_node=2))
        for names in results:
            assert names["self"] == "ch_self"
            assert names["same-node"] == "smp_plug"
            assert names["remote"] == "ch_mad"


class TestChSelf:
    def test_self_send_recv(self):
        def program(mpi):
            comm = mpi.comm_world
            req = comm.isend([1, 2, 3], dest=comm.rank, tag=5)
            data, status = yield from comm.recv(source=comm.rank, tag=5)
            yield from req.wait()
            return (data, status.source)

        results = run_ranks(program)
        assert results[0] == ([1, 2, 3], 0)
        assert results[1] == ([1, 2, 3], 1)

    def test_blocking_self_send_buffers(self):
        """A small blocking self-send completes before the recv (eager)."""
        def program(mpi):
            comm = mpi.comm_world
            yield from comm.send("loopback", dest=comm.rank)
            data, _ = yield from comm.recv(source=comm.rank)
            return data

        assert run_ranks(program) == ["loopback", "loopback"]


class TestSmpPlug:
    def test_intra_node_exchange(self):
        def program(mpi):
            comm = mpi.comm_world
            # Ranks 0,1 on node0; 2,3 on node1.
            buddy = comm.rank ^ 1
            data, _ = yield from comm.sendrecv(comm.rank, dest=buddy,
                                               sendtag=1, source=buddy,
                                               recvtag=1)
            return data

        results = run_world(program, smp_node_cluster(nodes=2,
                                                      processes_per_node=2))
        assert results == [1, 0, 3, 2]

    def test_smp_rendezvous_large_message(self):
        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(b"", dest=1, size=200_000)
                return None
            _, status = yield from comm.recv(source=0)
            return status.count

        config = smp_node_cluster(nodes=1, processes_per_node=2)
        # Single node world: drop inter-node requirement.
        results = run_world(program, config)
        assert results[1] == 200_000

    def test_a_send_copies_its_payload_once(self):
        """Eager isend, eager send and rendezvous isend over smp_plug:
        one ndarray copy each, taken at the MPI call.  The receiver gets
        the sender's values in a buffer of its own."""

        class Counted(np.ndarray):
            copies = 0

            def __array_finalize__(self, obj):
                if obj is not None and self.base is None:
                    Counted.copies += 1

        sizes = (16, 16, 32 * 1024 // 8)  # the last one is rendezvous
        sent = [np.full(n, float(i)).view(Counted)
                for i, n in enumerate(sizes)]

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                first = comm.isend(sent[0], dest=1, tag=0)
                sent[0][:] = -1.0  # invisible: detached at isend time
                yield from comm.send(sent[1], dest=1, tag=1)
                last = comm.isend(sent[2], dest=1, tag=2)
                yield from Request.waitall([first, last])
                return None
            received = []
            for tag in range(3):
                data, _ = yield from comm.recv(source=0, tag=tag)
                received.append(data)
            return received

        received = run_world(program, smp_node_cluster(
            nodes=1, processes_per_node=2))[1]
        assert Counted.copies == 3
        for i, (data, original) in enumerate(zip(received, sent)):
            assert data is not original
            assert not np.shares_memory(data, original)
            assert data.shape == (sizes[i],) and (data == float(i)).all()

    def test_smp_faster_than_network(self):
        """Intra-node latency must be far below inter-node latency."""
        def program(mpi):
            from repro.sim.coroutines import now
            comm = mpi.comm_world
            if comm.rank == 0:
                t0 = yield now()
                yield from comm.send(b"x", dest=1, tag=1)  # same node
                yield from comm.recv(source=1, tag=1)
                t1 = yield now()
                yield from comm.send(b"x", dest=2, tag=2)  # other node
                yield from comm.recv(source=2, tag=2)
                t2 = yield now()
                return (t1 - t0, t2 - t1)
            if comm.rank == 1:
                yield from comm.recv(source=0, tag=1)
                yield from comm.send(b"x", dest=0, tag=1)
            elif comm.rank == 2:
                yield from comm.recv(source=0, tag=2)
                yield from comm.send(b"x", dest=0, tag=2)
            return None

        results = run_world(program, smp_node_cluster(nodes=2,
                                                      processes_per_node=2))
        smp_rtt, net_rtt = results[0]
        assert smp_rtt < net_rtt / 2


class TestChMadChannelSelection:
    def test_prefers_fastest_common_network(self):
        def program(mpi):
            comm = mpi.comm_world
            port = mpi.inter_device.select_port(1 - mpi.rank)
            return port.channel.protocol
            yield  # pragma: no cover

        results = run_ranks(program, networks=("tcp", "sisci"))
        assert results == ["sisci", "sisci"]

        results = run_ranks(program, networks=("tcp", "bip", "sisci"))
        assert results == ["bip", "bip"]

    def test_heterogeneous_fallback_to_common_network(self):
        """Cluster-of-clusters: SCI island + BIP island joined by TCP."""
        nodes = [
            NodeSpec("sci0", networks=("tcp", "sisci")),
            NodeSpec("sci1", networks=("tcp", "sisci")),
            NodeSpec("myri0", networks=("tcp", "bip")),
            NodeSpec("myri1", networks=("tcp", "bip")),
        ]
        config = ClusterConfig(nodes=nodes, device="ch_mad")

        def program(mpi):
            device = mpi.inter_device
            chosen = {}
            for other in range(mpi.size):
                if other != mpi.rank:
                    chosen[other] = device.select_port(other).channel.protocol
            return chosen
            yield  # pragma: no cover

        results = run_world(program, config)
        assert results[0] == {1: "sisci", 2: "tcp", 3: "tcp"}
        assert results[2] == {0: "tcp", 1: "tcp", 3: "bip"}

    def test_no_common_network_raises(self):
        nodes = [
            NodeSpec("a", networks=("sisci",)),
            NodeSpec("b", networks=("bip",)),
        ]
        config = ClusterConfig(nodes=nodes, device="ch_mad")

        def program(mpi):
            # Each protocol has a single member, so no Madeleine channel
            # could be formed and ch_mad was not installed at all.
            if mpi.rank == 0:
                with pytest.raises(ConfigurationError,
                                   match="no inter-node device"):
                    yield from mpi.comm_world.send(b"x", dest=1)
            return None
            yield  # pragma: no cover

        run_world(program, config)

    def test_threshold_is_elected_single_value(self):
        def program(mpi):
            return mpi.inter_device.eager_threshold
            yield  # pragma: no cover

        assert run_ranks(program, networks=("sisci", "tcp")) == [8192, 8192]
        assert run_ranks(program, networks=("bip", "tcp")) == [7168, 7168]

    def test_per_network_threshold_ablation(self):
        nodes = [NodeSpec(f"n{i}", networks=("sisci", "tcp")) for i in range(2)]
        config = ClusterConfig(nodes=nodes, device="ch_mad",
                               per_network_thresholds=True)

        def program(mpi):
            return mpi.inter_device.threshold(1 - mpi.rank)
            yield  # pragma: no cover

        # Traffic rides SCI (preferred), so its own 8 KB applies; but the
        # ablation uses the per-network value, not the elected one.
        assert run_world(program, config) == [8192, 8192]

    def test_eager_messages_have_no_body_when_empty(self):
        """0-byte messages skip the body pack: cheaper than 4-byte ones."""
        from repro.bench.pingpong import mpi_pingpong
        zero = mpi_pingpong(0, networks=("sisci",), reps=3)
        four = mpi_pingpong(4, networks=("sisci",), reps=3)
        # The 4-byte message pays the extra pack/unpack pair (~6.5 us on
        # SCI) that the body-less 0-byte message skips (Table 2 gap).
        assert four.one_way_ns - zero.one_way_ns > 4_000


class _Unforgetting(dict):
    """A route memo that never forgets: the planted bug."""

    def clear(self):
        pass


def _reroute_by_preference(mpi):
    mpi.inter_device.preference = ("tcp", "sisci")
    yield from ()


def _reroute_by_lane(mpi):
    # Lanes rotate over every live rail reaching the peer: 1 -> tcp.
    mpi.inter_device.assign_lane([mpi.comm_world.context_id], 1)
    yield from ()


def _reroute_by_channel_death(mpi):
    # sisci dies at 200 us; the next message is lost on it until its
    # retransmissions give up and fail the channel over, so the reply
    # to it proves the death has been noticed.
    comm = mpi.comm_world
    yield sleep(us(300))
    yield from comm.send("lost on sisci", dest=1, tag=1, size=64)
    yield from comm.recv(source=1, tag=2)


REROUTES = {
    "preference": (_reroute_by_preference, None),
    "assign_lane": (_reroute_by_lane, None),
    "channel_death": (_reroute_by_channel_death,
                      FaultPlan(fabrics={"sisci": fabric_death(us(200))},
                                seed=1)),
}


def _protocol_after_reroute(label, planted=False):
    """Rank 0 sends on sisci, reroutes, sends once more: the protocol the
    last ch_mad packet left on (its ``chmad.send`` trace record)."""
    reroute, plan = REROUTES[label]
    nodes = [NodeSpec(f"n{i}", networks=("sisci", "tcp")) for i in range(2)]
    world = MPIWorld(ClusterConfig(nodes=nodes, fault_plan=plan),
                     engine_config=EngineConfig(instrumentation=True))
    if planted:
        for env in world.envs:
            env.inter_device._routes = _Unforgetting()

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 1:
            for _ in range(3 if plan else 2):
                yield from comm.recv(source=0, tag=1)
                yield from comm.send("ok", dest=0, tag=2, size=8)
            return None
        yield from comm.send("first", dest=1, tag=1, size=64)
        yield from comm.recv(source=1, tag=2)
        yield from reroute(mpi)
        yield from comm.send("rerouted", dest=1, tag=1, size=64)
        yield from comm.recv(source=1, tag=2)
        return None

    world.run(program)
    sends = world.engine.tracer.select("chmad.send", src=0)
    assert sends[0]["protocol"] == "sisci"
    return sends[-1]["protocol"]


class TestRouteMemo:
    """``ChMadDevice.direct_port`` resolves a route once per (peer,
    lane); these pin that a reroute still reaches the next packet."""

    @pytest.mark.parametrize("label", REROUTES)
    def test_next_packet_leaves_on_the_new_route(self, label):
        assert _protocol_after_reroute(label) == "tcp"

    # assign_lane needs no invalidation (the lane is part of the key), so
    # only these two reroutes can catch a memo that never forgets.
    @pytest.mark.parametrize("label", ["preference", "channel_death"])
    def test_a_memo_that_never_forgets_is_caught(self, label):
        assert _protocol_after_reroute(label, planted=True) == "sisci"


class TestMultiProtocolSession:
    def test_one_polling_thread_per_channel(self):
        def program(mpi):
            device = mpi.inter_device
            return sorted(p.port.channel.protocol for p in device._pollers)
            yield  # pragma: no cover

        results = run_ranks(program, networks=("sisci", "tcp"))
        assert results[0] == ["sisci", "tcp"]

    def test_traffic_flows_on_both_networks_simultaneously(self):
        def program(mpi):
            comm = mpi.comm_world
            device = mpi.inter_device
            other = 1 - comm.rank
            if comm.rank == 0:
                # Force one message over each network.
                device.preference = ("sisci", "tcp")
                yield from comm.send("on-sci", dest=1, tag=1)
                device.preference = ("tcp", "sisci")
                yield from comm.send("on-tcp", dest=1, tag=2)
                return None
            a, _ = yield from comm.recv(source=0, tag=1)
            b, _ = yield from comm.recv(source=0, tag=2)
            stats = {proto: port.endpoint.adapter.messages_received
                     for proto, port in mpi.inter_device.ports.items()}
            return (a, b, stats["sisci"] > 0, stats["tcp"] > 0)

        results = run_ranks(program, networks=("sisci", "tcp"))
        assert results[1] == ("on-sci", "on-tcp", True, True)
