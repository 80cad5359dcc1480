"""Unit tests for simulated synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import CPU, Condition, Engine, Flag, Mailbox, Mutex, Semaphore
from repro.sim import charge, sleep, wait


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cpu(engine):
    return CPU(engine)


class TestSemaphore:
    def test_initial_value_allows_immediate_acquire(self, engine, cpu):
        sem = Semaphore(2)
        passed = []

        def body(label):
            yield wait(sem)
            passed.append(label)

        cpu.spawn(body("a"))
        cpu.spawn(body("b"))
        engine.run()
        assert passed == ["a", "b"]
        assert sem.value == 0

    def test_blocks_until_release(self, engine, cpu):
        sem = Semaphore(0)
        events = []

        def waiter():
            yield wait(sem)
            events.append(("woke", engine.now))

        def releaser():
            yield sleep(500)
            sem.release()

        cpu.spawn(waiter)
        cpu.spawn(releaser)
        engine.run()
        assert events == [("woke", 500)]

    def test_fifo_wake_order(self, engine, cpu):
        sem = Semaphore(0)
        order = []

        def waiter(label):
            yield wait(sem)
            order.append(label)

        for label in "abc":
            cpu.spawn(waiter(label))

        def releaser():
            yield sleep(10)
            sem.release(count=3)

        cpu.spawn(releaser)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_release_without_waiters_banks_value(self, engine, cpu):
        sem = Semaphore(0)
        sem.release()
        done = []

        def body():
            yield wait(sem)
            done.append(True)

        cpu.spawn(body)
        engine.run()
        assert done == [True]

    def test_negative_initial_value_rejected(self):
        with pytest.raises(SimulationError):
            Semaphore(-1)

    def test_killed_waiter_is_skipped(self, engine, cpu):
        sem = Semaphore(0)
        woken = []

        def waiter(label):
            yield wait(sem)
            woken.append(label)

        victim = cpu.spawn(waiter("victim"))
        cpu.spawn(waiter("survivor"))
        engine.run()
        victim.kill()
        sem.release()
        engine.run()
        assert woken == ["survivor"]


class TestMutex:
    def test_mutual_exclusion(self, engine, cpu):
        mutex = Mutex()
        trace = []

        def worker(label):
            yield wait(mutex)
            trace.append((label, "in", engine.now))
            yield charge(100)
            trace.append((label, "out", engine.now))
            mutex.release()

        cpu.spawn(worker("a"))
        cpu.spawn(worker("b"))
        engine.run()
        assert trace == [
            ("a", "in", 0),
            ("a", "out", 100),
            ("b", "in", 100),
            ("b", "out", 200),
        ]

    def test_self_deadlock_detected(self, engine, cpu):
        mutex = Mutex(name="m")

        def body():
            yield wait(mutex)
            yield wait(mutex)

        cpu.spawn(body)
        with pytest.raises(SimulationError, match="self-deadlock"):
            engine.run()

    def test_release_unlocked_raises(self):
        with pytest.raises(SimulationError):
            Mutex().release()


class TestFlag:
    def test_wakes_all_waiters_with_value(self, engine, cpu):
        flag = Flag()
        seen = []

        def waiter(label):
            value = yield wait(flag)
            seen.append((label, value, engine.now))

        cpu.spawn(waiter("a"))
        cpu.spawn(waiter("b"))

        def setter():
            yield sleep(100)
            flag.set("go")

        cpu.spawn(setter)
        engine.run()
        assert seen == [("a", "go", 100), ("b", "go", 100)]

    def test_wait_on_set_flag_is_immediate(self, engine, cpu):
        flag = Flag()
        flag.set(7)
        seen = []

        def body():
            value = yield wait(flag)
            seen.append((value, engine.now))

        cpu.spawn(body)
        engine.run()
        assert seen == [(7, 0)]

    def test_set_is_idempotent_first_value_wins(self, engine, cpu):
        flag = Flag()
        flag.set("first")
        flag.set("second")
        assert flag.value == "first"


class TestMailbox:
    def test_fifo_delivery(self, engine, cpu):
        box = Mailbox()
        received = []

        def consumer():
            for _ in range(3):
                item = yield wait(box)
                received.append(item)

        cpu.spawn(consumer)
        box.post(1)
        box.post(2)
        box.post(3)
        engine.run()
        assert received == [1, 2, 3]

    def test_blocking_receive(self, engine, cpu):
        box = Mailbox()
        received = []

        def consumer():
            item = yield wait(box)
            received.append((item, engine.now))

        def producer():
            yield sleep(250)
            box.post("late")

        cpu.spawn(consumer)
        cpu.spawn(producer)
        engine.run()
        assert received == [("late", 250)]

    def test_len_and_peek(self):
        box = Mailbox()
        assert len(box) == 0
        assert box.peek() is None
        box.post("x")
        box.post("y")
        assert len(box) == 2
        assert box.peek() == "x"

    def test_multiple_consumers_fifo(self, engine, cpu):
        box = Mailbox()
        got = []

        def consumer(label):
            item = yield wait(box)
            got.append((label, item))

        cpu.spawn(consumer("a"))
        cpu.spawn(consumer("b"))
        engine.run()
        box.post(1)
        box.post(2)
        engine.run()
        assert got == [("a", 1), ("b", 2)]

    def test_queued_item_re_exposes_the_polling_cpus_clock_events(
            self, engine, cpu):
        box = Mailbox()
        box.poller_cpu = cpu            # what a periodic PollingThread sets
        engine.schedule_clock(30, cpu, lambda: None)
        engine.schedule(90, lambda: None)
        bystander = object()
        assert engine.next_payload_time(bystander) == 90
        box.post("pkt")                 # the poller is no longer inert
        assert engine.next_payload_time(bystander) == 30


class TestCondition:
    def test_wait_holding_releases_and_reacquires(self, engine, cpu):
        mutex = Mutex()
        cond = Condition()
        trace = []

        def waiter():
            yield wait(mutex)
            trace.append(("waiter-has-lock", engine.now))
            yield from cond.wait_holding(mutex)
            trace.append(("waiter-woke", engine.now))
            mutex.release()

        def signaller():
            yield sleep(10)
            yield wait(mutex)
            trace.append(("signaller-has-lock", engine.now))
            cond.notify()
            mutex.release()

        cpu.spawn(waiter)
        cpu.spawn(signaller)
        engine.run()
        assert trace == [
            ("waiter-has-lock", 0),
            ("signaller-has-lock", 10),
            ("waiter-woke", 10),
        ]

    def test_wait_holding_requires_lock(self, engine, cpu):
        mutex = Mutex()
        cond = Condition()

        def body():
            yield from cond.wait_holding(mutex)

        cpu.spawn(body)
        with pytest.raises(SimulationError, match="requires the mutex"):
            engine.run()

    def test_notify_all(self, engine, cpu):
        cond = Condition()
        woken = []

        def waiter(label):
            yield wait(cond)
            woken.append(label)

        for label in "abc":
            cpu.spawn(waiter(label))
        engine.run()
        cond.notify_all()
        engine.run()
        assert woken == ["a", "b", "c"]

    def test_notify_with_no_waiters_is_noop(self):
        Condition().notify()
        Condition().notify_all()
