"""Fault injection, reliable transport, and channel failover.

Covers the robustness layer end to end: deterministic fault plans
(:mod:`repro.faults`), the Madeleine ack/retransmit machinery
(:mod:`repro.madeleine.reliable`), and ch_mad's channel failover —
including the acceptance scenarios: a lossy run completes with zero MPI
errors, a mid-run fabric death fails over with byte-identical
application results, and exhausting every channel raises instead of
hanging.
"""

import pytest

from repro.cluster import ClusterConfig, MPIWorld, NodeSpec
from repro.errors import (
    ConfigurationError,
    FailoverExhaustedError,
    FaultError,
    SimulationError,
)
from repro.faults import (
    FabricFaults,
    FaultPlan,
    LinkDown,
    fabric_death,
    lossy_plan,
)
from repro.faults.injector import FaultInjector
from repro.mpi.devices.ch_mad.switchpoints import SWITCH_POINTS
from repro.sim import CPU, Engine, Mailbox, MailboxSelect, wait
from repro.sim.engine import install_instrumentation
from repro.units import us


# -- plans ---------------------------------------------------------------


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(FaultError):
            FabricFaults(drop_rate=1.5)
        with pytest.raises(FaultError):
            FabricFaults(corrupt_rate=-0.1)
        with pytest.raises(FaultError):
            FabricFaults(latency_spike_rate=0.5)  # no spike duration

    def test_link_down_validation(self):
        with pytest.raises(FaultError):
            LinkDown(at=-1)
        with pytest.raises(FaultError):
            LinkDown(at=0, duration=0)

    def test_link_down_coverage(self):
        down = LinkDown(at=100, duration=50, adapters=(1,))
        assert down.covers(120, 1)
        assert not down.covers(120, 0)      # other adapter
        assert not down.covers(99, 1)       # before the window
        assert not down.covers(150, 1)      # after the window
        assert LinkDown(at=100).covers(10**12, 5)  # permanent, all adapters

    def test_spec_for_falls_back_to_base_protocol(self):
        plan = lossy_plan(0.1, fabrics=("bip",))
        assert plan.spec_for("bip#1").drop_rate == 0.1
        assert plan.spec_for("tcp") is None
        exact = FaultPlan(fabrics={"bip#1": FabricFaults(drop_rate=0.5),
                                   "bip": FabricFaults(drop_rate=0.1)})
        assert exact.spec_for("bip#1").drop_rate == 0.5


class TestFaultInjector:
    def test_scheduled_drops_by_message_index(self):
        engine = Engine()
        plan = FaultPlan(fabrics={"tcp": FabricFaults(drop_messages=(1, 3))})
        injector = FaultInjector(engine, plan)
        verdicts = [injector.decide("tcp", 0, 1, 100).dropped
                    for _ in range(5)]
        assert verdicts == [False, True, False, True, False]

    def test_uncovered_fabric_passes_everything(self):
        injector = FaultInjector(Engine(), lossy_plan(1.0, fabrics=("tcp",)))
        decision = injector.decide("sisci", 0, 1, 100)
        assert not decision.dropped and not decision.corrupted

    def test_link_down_window_blackholes(self):
        engine = Engine()
        plan = FaultPlan(fabrics={
            "tcp": FabricFaults(downs=(LinkDown(at=1000, duration=500),)),
        })
        injector = FaultInjector(engine, plan)
        assert not injector.decide("tcp", 0, 1, 10).dropped
        engine.schedule(1200, lambda: None)
        engine.run()
        decision = injector.decide("tcp", 0, 1, 10)
        assert decision.dropped and decision.reason == "link_down"

    def test_permanent_death(self):
        engine = Engine()
        plan = FaultPlan(fabrics={"sisci": fabric_death(us(10))})
        injector = FaultInjector(engine, plan)
        assert not injector.fabric_dead("sisci")
        engine.schedule(us(10), lambda: None)
        engine.run()
        assert injector.fabric_dead("sisci")
        assert injector.decide("sisci", 0, 1, 10).reason == "link_dead"

    def test_decisions_replay_identically(self):
        def roll(seed):
            injector = FaultInjector(
                Engine(),
                FaultPlan(fabrics={"tcp": FabricFaults(
                    drop_rate=0.3, corrupt_rate=0.2,
                    latency_spike_rate=0.1, latency_spike_ns=100)},
                    seed=seed),
            )
            return [(injector.decide("tcp", 0, 1, 64).verdict,
                     injector.decide("tcp", 0, 1, 64).extra_latency)
                    for _ in range(200)]

        assert roll(7) == roll(7)
        assert roll(7) != roll(8)


# -- MailboxSelect -------------------------------------------------------


class TestMailboxSelect:
    def _run(self, body, setup=None):
        engine = Engine()
        cpu = CPU(engine, switch_cost=0)
        out = []
        cpu.spawn(body(out))
        if setup is not None:
            setup(engine)
        engine.run()
        return out

    def test_prefilled_mailbox_wins_immediately(self):
        a, b = Mailbox("a"), Mailbox("b")
        b.post("hello")

        def body(out):
            mailbox, item = yield wait(MailboxSelect([a, b]))
            out.append((mailbox.name, item))

        assert self._run(body) == [("b", "hello")]

    def test_first_post_anywhere_wakes(self):
        a, b = Mailbox("a"), Mailbox("b")

        def body(out):
            mailbox, item = yield wait(MailboxSelect([a, b]))
            out.append((mailbox.name, item))

        def setup(engine):
            engine.schedule(10, lambda: b.post(1))
            engine.schedule(20, lambda: a.post(2))

        assert self._run(body, setup) == [("b", 1)]
        assert len(a) == 1  # the other post stayed queued

    def test_stale_entries_are_skipped(self):
        """After a select fires, its registrations in the *other* mailboxes
        must not swallow later posts."""
        a, b = Mailbox("a"), Mailbox("b")

        def body(out):
            mailbox, item = yield wait(MailboxSelect([a, b]))
            out.append(item)
            mailbox, item = yield wait(MailboxSelect([a, b]))
            out.append(item)

        def setup(engine):
            engine.schedule(10, lambda: a.post("x"))
            engine.schedule(20, lambda: b.post("y"))

        assert self._run(body, setup) == ["x", "y"]

    def test_single_shot(self):
        a = Mailbox("a")
        a.post(1)
        a.post(2)
        select = MailboxSelect([a])

        def body(out):
            out.append((yield wait(select))[1])
            out.append((yield wait(select))[1])

        with pytest.raises(SimulationError):
            self._run(body)

    def test_needs_a_mailbox(self):
        with pytest.raises(SimulationError):
            MailboxSelect([])


# -- reliable transport through the full MPI stack -----------------------


def _two_node_config(networks=("tcp", "sisci"), fault_plan=None,
                     reliable=False):
    nodes = [NodeSpec(f"n{i}", networks=tuple(networks)) for i in range(2)]
    return ClusterConfig(nodes=nodes, fault_plan=fault_plan,
                         reliable=reliable)


def _stream_program(count=20, size=9000, tag=7):
    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            for i in range(count):
                yield from comm.send(("msg", i), dest=1, tag=tag, size=size)
            return None
        out = []
        for _ in range(count):
            data, _status = yield from comm.recv(source=0, tag=tag)
            out.append(data)
        return out
    return program


class TestReliableTransport:
    def test_plan_forces_reliability(self):
        world = MPIWorld(_two_node_config(fault_plan=lossy_plan(0.01)))
        assert world.session.reliable
        assert world.session.processes[0].transport is not None

    def test_reliable_without_faults_never_retransmits(self):
        world = MPIWorld(_two_node_config(reliable=True))
        ins = install_instrumentation(world.engine)
        results = world.run(_stream_program())
        assert results[1] == [("msg", i) for i in range(20)]
        assert ins.metrics.total("transport.retransmits") == 0
        assert ins.metrics.total("transport.acks") > 0

    def test_lossy_run_completes_with_correct_results(self):
        world = MPIWorld(_two_node_config(fault_plan=lossy_plan(0.05, seed=3)))
        ins = install_instrumentation(world.engine)
        results = world.run(_stream_program())
        assert results[1] == [("msg", i) for i in range(20)]
        assert ins.metrics.total("faults.dropped") > 0
        assert ins.metrics.total("transport.retransmits") > 0
        assert ins.metrics.total("failover.channels") == 0

    def test_corruption_is_handled_as_loss(self):
        plan = FaultPlan(fabrics={"sisci": FabricFaults(corrupt_rate=0.1),
                                  "tcp": FabricFaults(corrupt_rate=0.1)},
                         seed=5)
        world = MPIWorld(_two_node_config(fault_plan=plan))
        ins = install_instrumentation(world.engine)
        results = world.run(_stream_program())
        assert results[1] == [("msg", i) for i in range(20)]
        assert ins.metrics.total("faults.corrupted") > 0
        assert ins.metrics.total("transport.corrupt_drops") > 0

    def test_latency_spikes_only_delay(self):
        plan = FaultPlan(fabrics={"sisci": FabricFaults(
            latency_spike_rate=0.3, latency_spike_ns=us(50))}, seed=2)
        baseline = MPIWorld(_two_node_config(networks=("sisci",),
                                             reliable=True))
        spiky = MPIWorld(_two_node_config(networks=("sisci",),
                                          fault_plan=plan))
        ins = install_instrumentation(spiky.engine)
        program = _stream_program(count=10, size=500)
        assert baseline.run(program) == spiky.run(program)
        assert ins.metrics.total("faults.delayed") > 0
        assert ins.metrics.total("transport.retransmits") == 0
        assert spiky.engine.now > baseline.engine.now

    def test_rendezvous_survives_loss(self):
        """Large (rendezvous-mode) messages retransmit too: the REQUEST /
        SENDOK / RNDV packets all ride reliable connections."""
        plan = lossy_plan(0.08, seed=9)
        world = MPIWorld(_two_node_config(fault_plan=plan))
        results = world.run(_stream_program(count=6, size=100_000))
        assert results[1] == [("msg", i) for i in range(6)]


class TestChannelFailover:
    def test_fabric_death_fails_over_with_identical_results(self):
        """The tentpole acceptance scenario: SCI dies mid-run, the job
        completes over TCP with byte-identical MPI-level results."""
        program = _stream_program(count=20, size=9000)
        clean = MPIWorld(_two_node_config())
        clean_results = clean.run(program)

        plan = FaultPlan(fabrics={"sisci": fabric_death(us(200))}, seed=1)
        faulty = MPIWorld(_two_node_config(fault_plan=plan))
        ins = install_instrumentation(faulty.engine)
        faulty_results = faulty.run(program)

        assert faulty_results == clean_results
        assert ins.metrics.total("transport.retransmits") > 0
        assert ins.metrics.total("failover.channels") == 1

    def test_threshold_reelected_after_death(self):
        plan = FaultPlan(fabrics={"sisci": fabric_death(us(200))}, seed=1)
        world = MPIWorld(_two_node_config(fault_plan=plan))
        devices = [env.inter_device for env in world.envs]
        assert all(d.eager_threshold == SWITCH_POINTS["sisci"]
                   for d in devices)
        world.run(_stream_program(count=20, size=9000))
        assert all(d.eager_threshold == SWITCH_POINTS["tcp"]
                   for d in devices)
        assert all(d.ports["sisci"].channel.dead for d in devices)

    def test_no_survivor_raises_instead_of_hanging(self):
        plan = FaultPlan(fabrics={"sisci": fabric_death(us(50))})
        world = MPIWorld(_two_node_config(networks=("sisci",),
                                          fault_plan=plan))
        with pytest.raises(FailoverExhaustedError):
            world.run(_stream_program(count=5, size=4000))

    def test_new_sends_avoid_dead_channel(self):
        plan = FaultPlan(fabrics={"sisci": fabric_death(us(200))}, seed=1)
        world = MPIWorld(_two_node_config(fault_plan=plan))

        def program(mpi):
            comm = mpi.comm_world
            peer = 1 - comm.rank
            for i in range(20):
                if comm.rank == 0:
                    yield from comm.send(i, dest=1, tag=0, size=9000)
                else:
                    yield from comm.recv(source=0, tag=0)
            return mpi.inter_device.select_port(peer).channel.protocol

        assert world.run(program) == ["tcp", "tcp"]

    def test_fault_plan_requires_ch_mad(self):
        nodes = [NodeSpec(f"n{i}", networks=("tcp",)) for i in range(2)]
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=nodes, device="ch_p4",
                          fault_plan=lossy_plan(0.01))
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=nodes, device="ch_p4", reliable=True)


class TestDeadlockDiagnostics:
    def test_deadlock_error_reports_waitables(self):
        from repro.errors import DeadlockError

        world = MPIWorld(_two_node_config(networks=("sisci",)))

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 1:
                yield from comm.recv(source=0, tag=0)  # never sent
            return None

        with pytest.raises(DeadlockError) as excinfo:
            world.run(program)
        err = excinfo.value
        assert len(err.blocked) == 1 and "rank1.main" in err.blocked[0]
        (name, description), = err.waiting.items()
        assert "rank1.main" in name
        # The description names the waitable the rank hangs on, and the
        # enriched message carries it too.
        assert description and description in str(err)
