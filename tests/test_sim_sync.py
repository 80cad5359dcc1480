"""Unit tests for simulated synchronization primitives."""

import pytest

from repro.sim import CPU, Condition, Engine, Flag, Mailbox
from repro.sim import sleep, wait


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cpu(engine):
    return CPU(engine)


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

    def test_len(self):
        box = Mailbox()
        assert len(box) == 0
        box.post("x")
        box.post("y")
        assert len(box) == 2

    def test_killed_waiter_is_skipped(self, engine, cpu):
        box = Mailbox()
        woken = []

        def waiter(label):
            item = yield wait(box)
            woken.append((label, item))

        victim = cpu.spawn(waiter("victim"))
        cpu.spawn(waiter("survivor"))
        engine.run()
        victim.kill()
        box.post("x")
        engine.run()
        assert woken == [("survivor", "x")]
        assert len(box) == 0

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
