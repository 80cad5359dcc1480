"""Unit tests for the Marcel thread runtime and polling threads."""

import pytest

from repro.marcel import MarcelRuntime, PollingThread, PollMode, PollSource
from repro.sim import Engine, Mailbox, charge, sleep
from repro.units import us


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def runtime(engine):
    return MarcelRuntime(engine, name="proc0", switch_cost=0)


def test_spawn_and_join(engine, runtime):
    results = []

    def child():
        yield charge(100)
        return "done"

    def parent():
        task = runtime.spawn(child, name="child")
        value = yield from MarcelRuntime.join(task)
        results.append((value, engine.now))

    runtime.spawn(parent, name="parent")
    engine.run()
    assert results == [("done", 100)]


def test_thread_names_are_qualified(runtime):
    task = runtime.spawn((x for x in [charge(0)]), name="worker")
    assert task.name.startswith("proc0.worker#")


def test_temporary_threads_are_daemons(runtime):
    def body():
        yield charge(1)

    task = runtime.spawn_temporary(body, name="isend")
    assert task.daemon


def _payload_thread():
    yield charge(10)
    return ["payload"]


def test_joined_temporary_keeps_no_result(engine, runtime):
    # A joiner already waiting when the temporary finishes takes the
    # result; the finished task (still held here) keeps none of it.
    joined = []

    def parent():
        task = runtime.spawn_temporary(_payload_thread, name="tmp")
        joined.append((task, (yield from MarcelRuntime.join(task))))

    runtime.spawn(parent, name="parent")
    engine.run()
    [(task, value)] = joined
    assert value == ["payload"]
    assert task.finished and task.result is None


def test_late_join_of_temporary_takes_its_result(engine, runtime):
    # Joined after it finished: the first join takes the result.
    joined = []

    def parent():
        task = runtime.spawn_temporary(_payload_thread, name="tmp")
        yield sleep(1000)
        assert task.finished and task.result == ["payload"]
        joined.append((task, (yield from MarcelRuntime.join(task))))

    runtime.spawn(parent, name="parent")
    engine.run()
    [(task, value)] = joined
    assert value == ["payload"]
    assert task.result is None


def test_persistent_thread_keeps_its_result_after_join(engine, runtime):
    def parent():
        task = runtime.spawn(_payload_thread, name="child")
        yield from MarcelRuntime.join(task)
        return task

    parent_task = runtime.spawn(parent, name="parent")
    engine.run()
    assert parent_task.result.result == ["payload"]


def test_kill_daemons(engine, runtime):
    box = Mailbox()

    def poller():
        while True:
            yield from _consume(box)

    def _consume(mailbox):
        from repro.sim import wait
        yield wait(mailbox)

    runtime.spawn(poller, name="poll", daemon=True)
    engine.run()
    assert len(runtime.live_threads()) == 1
    assert runtime.kill_daemons() == 1
    assert runtime.live_threads() == []


class TestEventPolling:
    def test_items_handled_with_cost(self, engine, runtime):
        box = Mailbox()
        handled = []

        def handler(item):
            yield charge(us(2))
            handled.append((item, engine.now))

        source = PollSource("sci", PollMode.EVENT, box, poll_cost=us(1))
        thread = PollingThread(runtime, source, handler)
        box.post("m1")
        engine.run()
        # 1 us poll cost + 2 us handler.
        assert handled == [("m1", us(3))]
        assert thread.items_handled == 1
        thread.stop()

    def test_idle_event_poller_costs_nothing(self, engine, runtime):
        box = Mailbox()

        def handler(item):
            yield charge(us(1))

        PollingThread(runtime, PollSource("sci", PollMode.EVENT, box, poll_cost=us(1)), handler)
        engine.run()
        assert runtime.cpu.busy_time == 0

    def test_back_to_back_items_drain_in_order(self, engine, runtime):
        box = Mailbox()
        handled = []

        def handler(item):
            yield charge(us(1))
            handled.append(item)

        PollingThread(runtime, PollSource("bip", PollMode.EVENT, box, poll_cost=0), handler)
        for i in range(5):
            box.post(i)
        engine.run()
        assert handled == [0, 1, 2, 3, 4]


class TestPeriodicPolling:
    def test_idle_periodic_poller_burns_cpu(self, engine, runtime):
        box = Mailbox()

        def handler(item):
            yield charge(0)

        source = PollSource("tcp", PollMode.PERIODIC, box,
                            poll_cost=us(5), period=us(45))
        thread = PollingThread(runtime, source, handler)
        engine.run(until=us(499))
        # Each cycle is 5 us poll + 45 us sleep = 50 us -> 10 polls
        # (ticks at t=0, 50, ..., 450) before t=499.
        assert thread.polls == 10
        assert runtime.cpu.busy_time == us(50)
        thread.stop()

    def test_arrival_detected_at_next_poll_tick(self, engine, runtime):
        box = Mailbox()
        handled = []

        def handler(item):
            yield charge(0)
            handled.append((item, engine.now))

        source = PollSource("tcp", PollMode.PERIODIC, box,
                            poll_cost=us(5), period=us(95))
        thread = PollingThread(runtime, source, handler)
        # Post mid-sleep: poll ticks start at 0; cycle = poll(5)+sleep(95).
        engine.schedule(us(30), box.post, "pkt")
        engine.run(until=us(300))
        # Next tick begins at t=100, pays 5 us select, handles at 105.
        assert handled == [("pkt", us(105))]
        thread.stop()

    def test_periodic_source_requires_period(self):
        with pytest.raises(ValueError):
            PollSource("tcp", PollMode.PERIODIC, Mailbox(), poll_cost=1, period=0)


def test_periodic_poller_steals_cpu_from_worker(engine, runtime):
    """The Figure-9 mechanism in miniature: a periodic poller slows a
    compute-bound thread by its duty cycle."""
    box = Mailbox()

    def handler(item):
        yield charge(0)

    source = PollSource("tcp", PollMode.PERIODIC, box, poll_cost=us(10), period=us(90))
    PollingThread(runtime, source, handler)

    finish = []

    def worker():
        for _ in range(100):
            yield charge(us(10))
        finish.append(engine.now)

    runtime.spawn(worker, name="worker")
    engine.run(until=us(5000))
    # Pure compute is 1000 us; the poller steals ~10 us per 100 us cycle.
    assert finish, "worker did not finish"
    assert finish[0] > us(1000)
    assert finish[0] < us(1300)
