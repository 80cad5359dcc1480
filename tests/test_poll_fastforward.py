"""Tick-through differential for the idle-poll fast-forward.

``PollingThread._idle_skip`` folds idle poll ticks into one long sleep,
and ``Engine.next_payload_time`` lets idle pollers see past each other's
whole self-clock cycle (sleep wake *and* ``poll_cost`` charge).  Both are
exact only while the hidden events' owners are inert; the engine
re-exposes them when a post or a readied task ends that
(``Engine.expose_clock``).

The reference is the same world *ticked through*: ``_idle_skip`` stubbed
to return 0, so every tick executes as events.  Every world below must
end at the same virtual time with the same per-rank results, poller
counters, per-task and per-CPU charges and metric totals either way —
only ``events_executed`` may differ.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    EngineConfig,
    MPIWorld,
    NodeSpec,
    paper_cluster,
    two_node_cluster,
)
from repro.errors import MPIProcFailedError, MPIRevokedError
from repro.faults import FaultPlan, lossy_plan
from repro.marcel import MarcelRuntime, PollingThread, PollMode, PollSource
from repro.sim import Engine, Mailbox, charge, sleep
from repro.units import us


# -- the differential harness ---------------------------------------------


def _observe(config, program, tick_through, **engine_kw):
    """Run ``program`` on a fresh world; return everything observable."""
    pollers = []
    with pytest.MonkeyPatch.context() as patch:
        init = PollingThread.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pollers.append(self)

        patch.setattr(PollingThread, "__init__", recording_init)
        if tick_through:
            # A test stub, not an option: never skip, execute every tick.
            patch.setattr(PollingThread, "_idle_skip",
                          lambda self, pause: 0)
        world = MPIWorld(config(), engine_config=EngineConfig(
            instrumentation=True, **engine_kw))
        results = world.run(program)
    cpus = [env.process.runtime.cpu for env in world.envs]
    metrics = world.engine.instruments.metrics
    observed = {
        "virtual_ns": world.engine.now,
        "results": results,
        "pollers": [(p.task.name, p.polls, p.items_handled) for p in pollers],
        "task_cpu_time": [[(t.name, t.cpu_time) for t in cpu.tasks()]
                          for cpu in cpus],
        "cpu_busy_time": [cpu.busy_time for cpu in cpus],
        "poll.wakeups": metrics.total("poll.wakeups"),
        "poll.idle_ns": metrics.total("poll.idle_ns"),
    }
    return observed, world.engine.events_executed


def _differential(config, program, **engine_kw):
    fast, fast_events = _observe(config, program, False, **engine_kw)
    ticked, ticked_events = _observe(config, program, True, **engine_kw)
    assert fast == ticked
    assert any(polls for _name, polls, _items in fast["pollers"])
    return fast_events, ticked_events


def _pingpong(size, rounds=6):
    def program(mpi):
        comm = mpi.comm_world
        seen = []
        for rep in range(rounds):
            if comm.rank == 0:
                # Drift against the pollers' phase, like the paper sweeps.
                yield sleep(rep * us(7))
                yield from comm.send(rep, dest=1, tag=5, size=size)
                data, _ = yield from comm.recv(source=1, tag=5, size=size)
            else:
                data, _ = yield from comm.recv(source=0, tag=5, size=size)
                yield from comm.send(data + 1, dest=0, tag=5, size=size)
            seen.append(data)
        return seen
    return program


def _ring(sizes=(64, 1024, 16 * 1024, 100_000), rounds=12):
    def program(mpi):
        comm = mpi.comm_world
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        total = 0
        for tag, size in enumerate(sizes):
            for r in range(rounds):
                data, status = yield from comm.sendrecv(
                    comm.rank * 7919 + r, dest=right, sendtag=tag,
                    source=left, recvtag=tag, size=size, recvsize=size)
                total += data + status.count
        return total
    return program


def _lossy_ring_config():
    config = paper_cluster(nodes=4, networks=("sisci", "tcp"))
    config.fault_plan = lossy_plan(0.02, fabrics=("sisci", "tcp"), seed=0)
    return config


def _survive_a_death(mpi):
    comm = mpi.comm_world
    try:
        for _ in range(200):
            yield from comm.allreduce(comm.rank + 1)
    except (MPIProcFailedError, MPIRevokedError) as exc:
        comm.revoke()
        shrunk = yield from comm.shrink()
        total = yield from shrunk.allreduce(shrunk.rank + 1)
        return (type(exc).__name__, shrunk.size, total)
    return None


# -- the worlds -----------------------------------------------------------


@pytest.mark.parametrize("size", [4, 64 * 1024])
def test_two_node_tcp(size):
    fast, ticked = _differential(
        lambda: two_node_cluster(networks=("tcp",)), _pingpong(size))
    if size == 64 * 1024:
        # The point of it all: with a message on the wire both idle
        # pollers fast-forward to its delivery instead of bounding each
        # other to under one 9 us cycle.
        assert fast < 0.10 * ticked


def test_multiprotocol_sisci_traffic_under_an_idle_tcp_poller():
    # Figure 9's shape: all traffic on sisci, tcp polled and never used.
    _differential(lambda: two_node_cluster(networks=("sisci", "tcp"),
                                           active_network="sisci"),
                  _pingpong(1024, rounds=9))


def test_lossy_ring_with_retransmit_timers_in_the_queue():
    _differential(_lossy_ring_config, _ring())


def test_two_periodic_pollers_sharing_a_cpu():
    nodes = [NodeSpec(f"n{i}", networks=("tcp", "tcp#1")) for i in range(2)]
    _differential(lambda: ClusterConfig(nodes=nodes), _pingpong(48 * 1024))


def test_rank_death_with_heartbeats():
    def config():
        nodes = [NodeSpec(f"n{i}", networks=("tcp", "sisci"))
                 for i in range(4)]
        return ClusterConfig(nodes=nodes, fault_plan=FaultPlan.node_death(
            rank=2, at=us(300)))
    _differential(config, _survive_a_death, seed=3)


@pytest.mark.parametrize("fuzz_seed", range(10))
def test_fuzzed_poller_phase_offsets(fuzz_seed):
    _differential(lambda: two_node_cluster(networks=("sisci", "tcp"),
                                           active_network="tcp"),
                  _pingpong(2048, rounds=4), fuzz_seed=fuzz_seed)


def test_differential_has_teeth_without_re_exposure(monkeypatch):
    # Negative plant: hide clock entries forever.  The ring's checksums
    # still come out right, but a delivery into a sleeping poller's
    # mailbox no longer bounds its peers; with only far retransmit
    # timers queued they over-sleep and the ring ends at another time.
    ticked, _ = _observe(_lossy_ring_config, _ring(), True)
    monkeypatch.setattr(Engine, "expose_clock", lambda self, cpu: None)
    planted, _ = _observe(_lossy_ring_config, _ring(), False)
    assert planted["results"] == ticked["results"]
    assert planted["virtual_ns"] != ticked["virtual_ns"]


# -- engine-level regressions ---------------------------------------------


def _two_pollers(tick_through, post_at, q_phase, via_worker=False):
    """Two CPUs, one PERIODIC poller each (Q started ``q_phase`` ns after
    P), one far timer.

    A post lands in P's mailbox at ``post_at`` and P's handler posts to Q
    after a delay — or, ``via_worker``, a thread on P's CPU wakes at
    ``post_at`` and does so once P lets it run.  Returns what each
    handler saw and when, each poller's tick count, and the events
    executed.
    """
    engine = Engine()
    seen = []
    threads = {}

    def forward(item):
        seen.append(("P", item, engine.now))
        yield charge(us(2))
        engine.schedule(us(40), threads["Q"].source.mailbox.post, item + 1)

    def sink(item):
        seen.append(("Q", item, engine.now))
        yield charge(0)

    def worker():
        yield sleep(post_at)
        yield from forward(1)

    def start(name, handler):
        runtime = MarcelRuntime(engine, name)
        source = PollSource(name, PollMode.PERIODIC, Mailbox(),
                            poll_cost=us(6), period=us(45),
                            idle_period=us(3))
        threads[name] = PollingThread(runtime, source, handler)

    with pytest.MonkeyPatch.context() as patch:
        if tick_through:
            patch.setattr(PollingThread, "_idle_skip", lambda self, pause: 0)
        start("P", forward)
        engine.schedule(q_phase, start, "Q", sink)
        # The only other queued event: a far timer (retransmit, heartbeat).
        engine.schedule(us(6000), lambda: None)
        if via_worker:
            threads["P"].runtime.spawn(worker(), name="worker")
        else:
            engine.schedule(post_at,
                            lambda: threads["P"].source.mailbox.post(1))
        engine.run(until=us(6000))
    polls = {name: thread.polls for name, thread in threads.items()}
    return seen, polls, engine.events_executed


# P's cycle is 9 us: select 6 us, check, sleep 3 us; its checks land at
# 6.15 us + 9k.  It sleeps over [96.15, 99.15] and charges over
# [99.15, 105.15], and detects either post at 105.15.
_POST_IN_SLEEP, _POST_IN_CHARGE = us(96) + 500, us(100) + 500


@pytest.mark.parametrize("post_at, q_phase, q_asks_in_between", [
    (_POST_IN_SLEEP, 1000, True),      # Q checks at 97.15
    (_POST_IN_CHARGE, 7500, True),     # Q checks at 103.65
    (_POST_IN_SLEEP, 0, False),
    (_POST_IN_CHARGE, 4000, False),
])
def test_post_to_a_hidden_peer_poller_bounds_the_asker(
        post_at, q_phase, q_asks_in_between, monkeypatch):
    # The hole the hidden *wake* always had, and the hidden charge shares:
    # a delivery into inert P's mailbox schedules nothing, so Q — asking
    # before P's next check, with only a far timer queued — would sleep
    # past the reply P's handler is about to send.
    fast = _two_pollers(False, post_at, q_phase)
    ticked = _two_pollers(True, post_at, q_phase)
    assert fast[:2] == ticked[:2]
    (_p, one, p_time), (_q, two, q_time) = fast[0]
    assert (one, two) == (1, 2)
    assert p_time == us(105) + 150 and us(145) < q_time < us(160)
    assert fast[2] < 0.10 * ticked[2]
    # Teeth: without re-exposure exactly the in-between askers miss it.
    monkeypatch.setattr(Engine, "expose_clock", lambda self, cpu: None)
    planted = _two_pollers(False, post_at, q_phase)
    assert (planted[0] != ticked[0]) == q_asks_in_between


def test_task_readied_behind_a_hidden_charge_bounds_the_asker(monkeypatch):
    # The other mutation: a thread on P's CPU wakes while P's hidden
    # select holds the CPU.  What it does then (the post to Q) is queued
    # only once the charge completes, so a Q asking in between must be
    # bounded by that completion.
    fast = _two_pollers(False, us(100), 4000, via_worker=True)
    ticked = _two_pollers(True, us(100), 4000, via_worker=True)
    assert fast[:2] == ticked[:2]
    assert [who for who, _item, _when in fast[0]] == ["P", "Q"]
    monkeypatch.setattr(Engine, "expose_clock", lambda self, cpu: None)
    planted = _two_pollers(False, us(100), 4000, via_worker=True)
    assert planted[0] != ticked[0]


def test_poller_killed_while_its_hidden_charge_is_pending():
    engine = Engine()
    runtime = MarcelRuntime(engine, "rt", switch_cost=0)
    cpu = runtime.cpu
    source = PollSource("tcp", PollMode.PERIODIC, Mailbox(),
                        poll_cost=us(6), period=us(45), idle_period=us(3))

    def handler(item):  # pragma: no cover - nothing is ever posted
        yield charge(0)

    thread = PollingThread(runtime, source, handler)
    finished = []

    def worker():
        yield charge(us(20))
        finished.append(engine.now)

    def kill_and_spawn():
        assert cpu.current is thread.task          # mid hidden charge
        thread.stop()
        runtime.spawn(worker(), name="first")

    engine.schedule(us(2), kill_and_spawn)
    engine.schedule(us(10), lambda: runtime.spawn(worker(), name="second"))
    engine.run()
    # The kill freed the CPU: the first worker ran at once.  The dead
    # poller's stale charge completion (t=6 us, mid that worker's charge)
    # did not release the CPU under it — the second worker queued behind.
    assert finished == [us(22), us(42)]
    assert cpu.busy_time == us(6) + 2 * us(20)
    # Nothing stays exposed, and a post into the dead poller's mailbox
    # finds nothing to expose.
    assert engine.next_payload_time(object()) is None
    source.mailbox.post("late")
    assert engine.next_payload_time(object()) is None
