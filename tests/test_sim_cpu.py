"""Unit tests for the CPU scheduler and coroutine tasks."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    CPU,
    Engine,
    Semaphore,
    TaskState,
    charge,
    clock_charge,
    now,
    sleep,
    wait,
    yield_cpu,
)


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def cpu(engine):
    return CPU(engine, name="test-cpu")


def test_task_runs_to_completion(engine, cpu):
    seen = []

    def body():
        seen.append("start")
        yield charge(100)
        seen.append("end")

    task = cpu.spawn(body)
    engine.run()
    assert seen == ["start", "end"]
    assert task.state is TaskState.DONE
    assert engine.now == 100


def test_task_return_value(engine, cpu):
    def body():
        yield charge(1)
        return 42

    task = cpu.spawn(body)
    engine.run()
    assert task.result == 42


def test_charge_holds_the_cpu(engine, cpu):
    """While one task charges, another ready task must not run."""
    order = []

    def long_worker():
        order.append(("long-start", engine.now))
        yield charge(1000)
        order.append(("long-end", engine.now))

    def short_worker():
        order.append(("short-start", engine.now))
        yield charge(10)
        order.append(("short-end", engine.now))

    cpu.spawn(long_worker)
    cpu.spawn(short_worker)
    engine.run()
    assert order == [
        ("long-start", 0),
        ("long-end", 1000),
        ("short-start", 1000),
        ("short-end", 1010),
    ]


def test_sleep_releases_the_cpu(engine, cpu):
    order = []

    def sleeper():
        yield sleep(1000)
        order.append(("sleeper", engine.now))

    def worker():
        yield charge(10)
        order.append(("worker", engine.now))

    cpu.spawn(sleeper)
    cpu.spawn(worker)
    engine.run()
    assert order == [("worker", 10), ("sleeper", 1000)]


def test_zero_charge_is_free(engine, cpu):
    def body():
        yield charge(0)
        yield charge(0)

    cpu.spawn(body)
    engine.run()
    assert engine.now == 0


def test_get_time_syscall(engine, cpu):
    times = []

    def body():
        times.append((yield now()))
        yield charge(500)
        times.append((yield now()))

    cpu.spawn(body)
    engine.run()
    assert times == [0, 500]


def test_yield_cpu_round_robins(engine, cpu):
    order = []

    def worker(label):
        for _ in range(3):
            order.append(label)
            yield yield_cpu()

    cpu.spawn(worker("a"))
    cpu.spawn(worker("b"))
    engine.run()
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_join_returns_result(engine, cpu):
    results = []

    def child():
        yield charge(100)
        return "child-result"

    def parent():
        task = cpu.spawn(child)
        value = yield wait(task)
        results.append((value, engine.now))

    cpu.spawn(parent)
    engine.run()
    assert results == [("child-result", 100)]


def test_join_already_finished_task(engine, cpu):
    results = []

    def child():
        yield charge(1)
        return "early"

    child_task = cpu.spawn(child)

    def parent():
        yield sleep(1000)
        value = yield wait(child_task)
        results.append(value)

    cpu.spawn(parent)
    engine.run()
    assert results == ["early"]


def test_task_exception_propagates_to_run(engine, cpu):
    def body():
        yield charge(1)
        raise ValueError("boom")

    task = cpu.spawn(body)
    with pytest.raises(ValueError, match="boom"):
        engine.run()
    assert task.state is TaskState.FAILED
    assert isinstance(task.exception, ValueError)


def test_finished_task_drops_its_body(engine, cpu):
    def body():
        yield charge(1)
        return "kept"

    task = cpu.spawn(body)
    killed = cpu.spawn(body)
    killed.kill()
    engine.run()
    assert task.gen is None and task.result == "kept"
    assert killed.gen is None and killed.state is TaskState.KILLED
    assert not hasattr(task, "__dict__")  # slotted: nothing else to hold


def test_spawn_rejects_non_generator(engine, cpu):
    with pytest.raises(SimulationError, match="generator"):
        cpu.spawn(lambda: 42)


def test_yielding_a_non_syscall_is_an_error(engine, cpu):
    def body():
        yield 42

    cpu.spawn(body)
    with pytest.raises(SimulationError, match="system calls"):
        engine.run()


def test_clock_charge_is_a_charge_filed_as_a_self_clock_event(engine, cpu):
    order = []

    def holder():
        yield clock_charge(10)
        order.append(("holder", engine.now))

    def other():
        order.append(("other", engine.now))
        yield charge(0)

    task = cpu.spawn(holder)
    engine.schedule(40, lambda: None)
    engine.step()                                  # dispatch: now charging
    assert task.state is TaskState.CLOCK_CHARGING and cpu.current is task
    assert (cpu.busy_time, task.cpu_time) == (10, 10)
    # Another CPU's fast-forward sees past the completion ...
    bystander = object()
    assert engine.next_payload_time(bystander) == 40
    # ... until a task is runnable behind it: what that task does once the
    # CPU is released is queued only then.
    engine.schedule(3, cpu.spawn, other)
    engine.step()
    assert engine.next_payload_time(bystander) == 10
    engine.run()
    assert order == [("holder", 10), ("other", 10)]    # it held the CPU
    assert engine.next_payload_time(bystander) is None


def test_stale_completion_of_a_killed_charger_leaves_the_cpu_alone(engine, cpu):
    finished = []

    def victim():
        yield charge(6)

    def worker(name):
        yield charge(20)
        finished.append((name, engine.now))

    task = cpu.spawn(victim)
    engine.schedule(2, lambda: (task.kill(), cpu.spawn(worker("first"))))
    # Readied after the victim's stale completion (t=6) fires mid-charge.
    engine.schedule(10, lambda: cpu.spawn(worker("second")))
    engine.run()
    assert finished == [("first", 22), ("second", 42)]


def test_kill_blocked_task(engine, cpu):
    sem = Semaphore(0)

    def body():
        yield wait(sem)

    task = cpu.spawn(body)
    engine.run()
    assert task.state is TaskState.BLOCKED
    task.kill()
    assert task.state is TaskState.KILLED
    # Releasing afterwards must not wake the corpse.
    sem.release()
    engine.run()
    assert task.state is TaskState.KILLED


def test_switch_cost_charged_between_tasks(engine):
    cpu = CPU(engine, switch_cost=50)
    order = []

    def worker(label):
        order.append((label, engine.now))
        yield charge(100)

    cpu.spawn(worker("a"))
    cpu.spawn(worker("b"))
    engine.run()
    # a starts after one switch (50), b after a's charge plus another switch.
    assert order == [("a", 50), ("b", 200)]


def test_no_switch_cost_when_resuming_same_task(engine):
    cpu = CPU(engine, switch_cost=50)

    def body():
        yield charge(100)
        yield charge(100)

    cpu.spawn(body)
    engine.run()
    assert engine.now == 250  # one switch + two charges


def test_busy_time_accounting(engine, cpu):
    def body():
        yield charge(300)
        yield sleep(1000)
        yield charge(200)

    cpu.spawn(body)
    engine.run()
    assert cpu.busy_time == 500


def test_daemon_flag_and_live_tasks(engine, cpu):
    sem = Semaphore(0)

    def poller():
        while True:
            yield wait(sem)

    def main():
        yield charge(10)

    daemon_task = cpu.spawn(poller, daemon=True)
    cpu.spawn(main)
    engine.run()
    assert daemon_task in cpu.live_tasks()
    assert cpu.blocked_nondaemon_tasks() == []


def test_nested_generators_with_yield_from(engine, cpu):
    trace = []

    def helper():
        yield charge(10)
        trace.append(("helper", engine.now))
        return "inner"

    def body():
        value = yield from helper()
        trace.append((value, engine.now))

    cpu.spawn(body)
    engine.run()
    assert trace == [("helper", 10), ("inner", 10)]


def test_two_cpus_run_concurrently(engine):
    cpu_a = CPU(engine, name="a")
    cpu_b = CPU(engine, name="b")
    order = []

    def worker(label):
        yield charge(100)
        order.append((label, engine.now))

    cpu_a.spawn(worker("a"))
    cpu_b.spawn(worker("b"))
    engine.run()
    # Both finish at t=100: they do not contend with each other.
    assert sorted(order) == [("a", 100), ("b", 100)]


# ---------------------------------------------------------------------------
# Roster compaction of recyclable (temporary) tasks
# ---------------------------------------------------------------------------

def _noop():
    return "ok"
    yield  # pragma: no cover - generator marker


def test_non_recyclable_spawns_never_pool(engine, cpu):
    task = cpu.spawn(_noop, name="keep")
    engine.run()
    cpu._compact_tasks()
    assert task in cpu.tasks()  # stays on the roster for joins


def test_compaction_triggers_at_threshold(engine, cpu):
    from repro.sim.cpu import _TASK_COMPACT_MIN

    for _ in range(_TASK_COMPACT_MIN):
        cpu.spawn(_noop, recyclable=True)
    engine.run()
    # The threshold-th finish compacted the roster automatically.
    assert cpu._finished_recyclable < _TASK_COMPACT_MIN
    assert all(not (t.finished and t.recyclable) for t in cpu.tasks())


def test_recycled_identity_charges_switch_cost(engine):
    cpu = CPU(engine, name="switchy", switch_cost=150)

    def worker():
        yield charge(100)

    cpu.spawn(worker(), recyclable=True)
    engine.run()
    cpu._compact_tasks()
    busy_before = cpu.busy_time
    cpu.spawn(worker(), recyclable=True)
    engine.run()
    # The next temporary thread is a *new* thread, although the last one
    # to run left the roster: it pays the context switch (150) plus its
    # own work (100).
    assert cpu.busy_time - busy_before == 250


# -- owed time (CPU.owe) ------------------------------------------------------


def test_owed_time_folds_into_the_next_charge_as_one_event(engine, cpu):
    def fused():
        cpu.owe(30)
        cpu.owe(12)
        yield charge(100)
        return engine.now

    def separate():
        yield charge(30)
        yield charge(12)
        yield charge(100)
        return engine.now

    task = cpu.spawn(fused)
    engine.run()
    assert task.result == 142
    assert (task.cpu_time, cpu.busy_time, cpu.owed) == (142, 142, 0)
    reference = Engine()
    ref_task = CPU(reference).spawn(separate)
    reference.run()
    assert ref_task.result == 142
    assert engine.events_executed == reference.events_executed - 2


def test_zero_charge_settles_a_debt_and_is_free_without_one(engine, cpu):
    def body():
        yield charge(0)
        first = engine.now
        cpu.owe(25)
        yield charge(0)
        return first, engine.now

    task = cpu.spawn(body)
    engine.run()
    assert task.result == (0, 25)
    assert task.cpu_time == 25


@pytest.mark.parametrize("call", ["wait", "sleep", "yield_cpu", "now",
                                  "clock_charge"])
def test_owed_time_is_paid_before_any_other_system_call(engine, cpu, call):
    """The call is interpreted at the later time, as if a charge of the
    owed amount had preceded it."""
    sem = Semaphore(value=1)
    seen = {}

    def other():
        seen["other"] = engine.now
        yield charge(1)

    def body():
        cpu.owe(40)
        if call == "wait":
            yield wait(sem)
            seen["after"] = engine.now          # acquired at t=40
        elif call == "sleep":
            yield sleep(10)
            seen["after"] = engine.now          # 40 + 10; other ran meanwhile
        elif call == "yield_cpu":
            yield yield_cpu()
            seen["after"] = engine.now          # other ran at 40, 1 ns
        elif call == "now":
            seen["after"] = yield now()
        else:
            yield clock_charge(5)
            seen["after"] = engine.now

    task = cpu.spawn(body)
    cpu.spawn(other)
    engine.run()
    # The debt was charged while holding the CPU: `other` never ran
    # before t=40, whatever released the CPU afterwards.
    assert seen["other"] >= 40
    expected = {"wait": 40, "sleep": 50, "yield_cpu": 41, "now": 40,
                "clock_charge": 45}[call]
    assert seen["after"] == expected
    assert task.cpu_time == (45 if call == "clock_charge" else 40)
    assert cpu.owed == 0


def test_owed_time_is_paid_before_the_task_finishes(engine, cpu):
    """Joiners and done-callbacks see the task end at the later time."""
    ended = []

    def debtor():
        yield charge(10)
        cpu.owe(60)
        return "done"

    def joiner(task):
        result = yield wait(task)
        return result, engine.now

    task = cpu.spawn(debtor)
    task.add_done_callback(lambda t: ended.append(engine.now))
    waiting = CPU(engine, name="other-cpu").spawn(joiner(task))
    engine.run()
    assert ended == [70]
    assert waiting.result == ("done", 70)
    assert (task.cpu_time, cpu.busy_time) == (70, 70)


def test_a_failing_task_leaves_no_debt_for_the_next_holder(engine, cpu):
    def doomed():
        cpu.owe(500)
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    def survivor():
        yield charge(7)
        return engine.now

    cpu.spawn(doomed)
    survivor_task = cpu.spawn(survivor)
    with pytest.raises(RuntimeError):
        engine.run()
    engine.run()
    assert cpu.owed == 0
    assert survivor_task.result == 7
    assert survivor_task.cpu_time == 7


def test_a_task_killed_while_paying_leaves_no_debt(engine, cpu):
    sem = Semaphore()

    def debtor():
        cpu.owe(100)
        yield wait(sem)  # pays first: charging until t=100

    def survivor():
        yield charge(5)
        return engine.now

    task = cpu.spawn(debtor)
    engine.run(until=50)
    assert task.state is TaskState.CHARGING and cpu.owed == 0
    task.kill()
    survivor_task = cpu.spawn(survivor)
    engine.run()
    assert survivor_task.result == 55
    assert survivor_task.cpu_time == 5
    assert sem.waiting() == 0  # the wait was never interpreted


def test_owe_without_a_running_task_is_an_error(engine, cpu):
    """An engine callback, or a call while the holder is mid-charge, must
    not bill a bystander."""
    with pytest.raises(SimulationError, match="no running task"):
        cpu.owe(10)  # nothing on the CPU at all

    def charger():
        yield charge(100)

    cpu.spawn(charger)
    failures = []

    def callback():
        try:
            cpu.owe(10)
        except SimulationError as exc:
            failures.append(exc)

    engine.schedule(50, callback)  # the holder is CHARGING, not RUNNING
    engine.run()
    assert len(failures) == 1
    assert (cpu.owed, cpu.busy_time) == (0, 100)
