"""Cooperative task scheduling on a simulated CPU.

One :class:`CPU` models one processor.  Tasks (generator coroutines) are
scheduled cooperatively, exactly like Marcel user-level threads on the
paper's hardware: a task holds the CPU until it charges, sleeps, blocks or
yields.  Time only passes when a task *charges* (software overhead) or when
the CPU is idle waiting for an event — so every microsecond of the results
is attributable to a modelled cost.

Scheduling hot path: releasing the CPU does not enqueue a zero-delay
dispatch event when the engine is *quiet* (no other event due at the
current timestamp) — the next ready task is dispatched synchronously
instead, which is observably identical because the dispatch event would
have been the unique next thing the engine executed (see
``Engine.quiet_now``).  When the engine is not quiet, the dispatch goes
through ``Engine.call_soon`` so same-timestamp events keep their exact
FIFO ordering.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError
from repro.sim.coroutines import (
    Charge,
    ClockCharge,
    ClockSleep,
    GetTime,
    Sleep,
    SystemCall,
    Wait,
    YieldCPU,
)
from repro.sim.engine import Engine

TaskBody = Generator[SystemCall, Any, Any]

#: Compact a CPU's task roster once this many recyclable tasks have
#: finished since the last compaction.  Deliberately high enough that
#: the small golden workloads (a few dozen temporary threads) never
#: compact — their ``tasks()`` aggregation, which the determinism
#: goldens pin, is untouched.
_TASK_COMPACT_MIN = 256


class TaskState(enum.Enum):
    """Lifecycle of a simulated task."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    CHARGING = "charging"  # holding the CPU while virtual time passes
    #: Charging, and the completion is a hidden self-clock event (an
    #: idle poll tick's ``clock_charge``): a task made ready behind it
    #: must re-expose it, see ``Engine.expose_clock``.
    CLOCK_CHARGING = "clock-charging"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


#: States in which a task will never run again.
FINISHED_STATES = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.KILLED})


class Task:
    """A generator coroutine scheduled on a :class:`CPU`.

    A task is also a waitable: other tasks may ``yield wait(task)`` to
    join it; the join evaluates to the task's return value (or re-raises
    its exception).  A *recyclable* task (a temporary thread, see
    ``MarcelRuntime.spawn_temporary``) is joined once: it hands its
    result to the joiners waiting when it finishes, or to the first one
    that comes later, and keeps none itself.  Other tasks keep
    :attr:`result` for as long as they live.
    """

    __slots__ = ("cpu", "gen", "name", "daemon", "state", "finished",
                 "result", "exception", "cpu_time", "waiting_on",
                 "_joiners", "_done_callbacks", "_wake_value", "_queued",
                 "recyclable")

    _counter = 0

    def __init__(self, cpu: "CPU", body: TaskBody, name: str | None = None,
                 daemon: bool = False):
        if not hasattr(body, "send"):
            raise SimulationError(
                f"task body must be a generator, got {type(body).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        Task._counter += 1
        self.cpu = cpu
        #: The body; dropped once the task finishes.
        self.gen: TaskBody | None = body
        self.name = name or f"task-{Task._counter}"
        #: Daemon tasks do not count for deadlock detection and may be
        #: killed at teardown — the polling threads of ch_mad are daemons.
        self.daemon = daemon
        self.state = TaskState.NEW
        #: True once the task reached DONE/FAILED/KILLED.  A plain flag,
        #: not a property over ``state``: it is read millions of times on
        #: the scheduler hot path (enum-set membership costs a hash).
        self.finished = False
        self.result: Any = None
        self.exception: BaseException | None = None
        #: Total ns of CPU this task has charged (profiling; the Fig. 9
        #: analysis reads polling threads' shares from here).
        self.cpu_time: int = 0
        #: The waitable this task is currently blocked on (None unless
        #: state is BLOCKED) — deadlock diagnostics read it to say *what*
        #: a hung thread was waiting for.
        self.waiting_on: Any = None
        self._joiners: list[Task] = []
        self._done_callbacks: list[Callable[["Task"], None]] = []
        self._wake_value: Any = None
        #: True while this task sits in its CPU's ready deque (tombstone
        #: accounting: a killed task stays queued but dead, see
        #: ``CPU._discard``).
        self._queued = False
        #: Recyclable tasks (temporary threads) leave their CPU's roster
        #: once finished, so a long run does not retain every one of
        #: them (see ``CPU._compact_tasks``), and are joined once.
        self.recyclable = False

    # -- waitable protocol (join) ------------------------------------------

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self.finished:
            if self.exception is not None:
                raise self.exception
            result = self.result
            if self.recyclable:
                self.result = None  # handed to this joiner
            return True, result
        self._joiners.append(task)
        return False, None

    def add_done_callback(self, fn: Callable[["Task"], None]) -> None:
        """Call ``fn(self)`` when the task finishes (any terminal state).

        Fires immediately if the task is already finished.  Completion
        bookkeeping (e.g. the cluster session's remaining-ranks counter)
        uses this instead of polling ``finished`` per engine event.
        """
        if self.finished:
            fn(self)
        else:
            self._done_callbacks.append(fn)

    def _finish(self, result: Any = None, exception: BaseException | None = None,
                killed: bool = False) -> None:
        self.gen = None
        if killed:
            self.state = TaskState.KILLED
        elif exception is not None:
            self.state = TaskState.FAILED
            self.exception = exception
        else:
            self.state = TaskState.DONE
            self.result = result
        self.finished = True
        # Later joins and callbacks see ``finished`` and act at once.
        joiners, callbacks = self._joiners, self._done_callbacks
        self._joiners = self._done_callbacks = ()
        handed = False
        for joiner in joiners:
            if not joiner.finished:
                joiner.cpu.make_ready(joiner, result)
                handed = True
        for fn in callbacks:
            fn(self)
        if self.recyclable:
            if handed:
                self.result = None
            self.cpu._note_recyclable_finish()

    def waiting_description(self) -> str:
        """Human-readable description of what this task is blocked on."""
        if self.state is not TaskState.BLOCKED or self.waiting_on is None:
            return self.state.value
        waitable = self.waiting_on
        kind = type(waitable).__name__
        name = getattr(waitable, "name", None)
        return f"{kind} {name!r}" if name is not None else f"{kind} {waitable!r}"

    def kill(self) -> None:
        """Forcefully terminate the task (used for daemon teardown)."""
        if self.finished:
            return
        self.gen.close()
        if self.cpu.current is self:
            # Cannot happen from within the task itself (it would have to
            # call kill() while running, which close() prevents), but guard.
            self.cpu.current = None  # pragma: no cover - defensive
        self.cpu._discard(self)
        self._finish(killed=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.state.value}>"


class CPU:
    """One simulated processor running cooperative tasks.

    ``switch_cost`` ns are charged whenever the CPU starts running a task
    different from the one it ran last — the cost of a Marcel user-level
    context switch (sub-microsecond on the paper's hardware).
    """

    _counter = 0

    def __init__(self, engine: Engine, name: str | None = None, switch_cost: int = 0):
        CPU._counter += 1
        self.engine = engine
        self.name = name or f"cpu-{CPU._counter}"
        self.switch_cost = int(switch_cost)
        self.current: Task | None = None
        self._ready: deque[Task] = deque()
        #: Tombstones: killed tasks still sitting in ``_ready`` (they are
        #: skipped on pop).  ``ready_count`` subtracts this so discarding
        #: a queued task is O(1) instead of ``deque.remove``'s O(n).
        self._ready_dead = 0
        self._last_ran: Task | None = None
        self._dispatch_pending = False
        self._tasks: list[Task] = []
        self._finished_recyclable = 0
        #: Total ns this CPU spent busy (charges + switches), diagnostic.
        self.busy_time: int = 0
        #: ns the running task accrued with :meth:`owe` and has yet to pay.
        self.owed: int = 0

    # -- public API --------------------------------------------------------

    def spawn(self, body: TaskBody | Callable[[], TaskBody], name: str | None = None,
              daemon: bool = False, recyclable: bool = False) -> Task:
        """Create a task from a generator (or a zero-arg generator function).

        ``recyclable`` lets the roster drop the task once it has finished
        (:meth:`tasks`) and makes it join-once (see :class:`Task`): for
        the temporary threads of the MPI layers
        (``MarcelRuntime.spawn_temporary``).
        """
        if callable(body) and not hasattr(body, "send"):
            body = body()
        task = Task(self, body, name=name, daemon=daemon)
        task.recyclable = recyclable
        self._tasks.append(task)
        task.state = TaskState.READY
        task._queued = True
        self._ready.append(task)
        self._ensure_dispatch()
        return task

    def make_ready(self, task: Task, value: Any = None) -> None:
        """Unblock ``task`` with ``value`` as the result of its pending wait."""
        if task.finished:
            return
        if task.state in (TaskState.READY, TaskState.RUNNING,
                          TaskState.CHARGING, TaskState.CLOCK_CHARGING):
            raise SimulationError(f"cannot wake {task!r}: not blocked or sleeping")
        task.state = TaskState.READY
        task.waiting_on = None
        task._wake_value = value
        task._queued = True
        self._ready.append(task)
        self._ensure_dispatch()

    def owe(self, ns: int) -> None:
        """Bill ``ns`` to the running task without an engine event.

        It pays at its next system call — with it when that is a
        ``Charge``, else before it, and before finishing: the time line
        of back-to-back charges, provided nothing it does in between is
        observable (checker invariant ``owed-time-leak``).
        """
        task = self.current
        if task is None or task.state is not TaskState.RUNNING:
            raise SimulationError(f"{self.name}.owe({ns}): no running task")
        self.owed += ns
        if self.engine.checker.enabled:
            self.engine.checker.on_owe(self)

    def ready_count(self) -> int:
        """Live tasks waiting in the ready queue.  O(1)."""
        return len(self._ready) - self._ready_dead

    def tasks(self) -> Iterable[Task]:
        """All tasks on this CPU's roster.

        Every task ever spawned, minus finished *recyclable* temporaries
        that have been compacted away (threshold-gated, see
        :meth:`_compact_tasks`) — without that exception a million-message
        run would retain every temporary isend/rndv thread it ever
        spawned.  Persistent tasks (mains, pollers, anything spawned
        without ``recyclable=True``) are always present.  A finished
        task on the roster holds no body, and a finished temporary that
        was joined holds no result either: the roster costs a few
        hundred bytes per task, whatever the task computed.
        """
        return tuple(self._tasks)

    def live_tasks(self) -> list[Task]:
        """Tasks that have not finished."""
        return [t for t in self._tasks if not t.finished]

    def blocked_nondaemon_tasks(self) -> list[Task]:
        """Non-daemon tasks still blocked — deadlock diagnostics."""
        return [
            t for t in self._tasks
            if not t.finished and not t.daemon and t.state == TaskState.BLOCKED
        ]

    # -- roster compaction ---------------------------------------------------

    def _note_recyclable_finish(self) -> None:
        self._finished_recyclable += 1
        if self._finished_recyclable >= _TASK_COMPACT_MIN:
            self._compact_tasks()

    def _compact_tasks(self) -> None:
        """Drop finished recyclable tasks from the roster."""
        self._tasks[:] = [task for task in self._tasks
                          if not (task.finished and task.recyclable)]
        self._finished_recyclable = 0

    # -- internals ----------------------------------------------------------

    def _discard(self, task: Task) -> None:
        # O(1) tombstone: the task stays in the deque; _dispatch skips
        # finished tasks and ready_count() subtracts the dead.
        if task._queued:
            self._ready_dead += 1

    def _ensure_dispatch(self) -> None:
        current = self.current
        if current is None:
            if not self._dispatch_pending:
                self._dispatch_pending = True
                self.engine.call_soon(self._dispatch)
        elif current.state is TaskState.CLOCK_CHARGING:
            # A task is now runnable behind a hidden charge: what it does
            # once that charge releases the CPU is no longer inert.
            self.engine.expose_clock(self)

    def _release_cpu(self) -> None:
        """The CPU just went idle at the tail of an event callback.

        Dispatch the next ready task inline when that is legal (engine
        quiet at this timestamp), otherwise fall back to a queued
        zero-delay dispatch exactly like the pre-fast-path scheduler.
        """
        if self._dispatch_pending:
            return
        if self._ready and self.engine.quiet_now():
            self._dispatch()
        else:
            self._dispatch_pending = True
            self.engine.call_soon(self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        ready = self._ready
        engine = self.engine
        while self.current is None and ready:
            if engine.fuzz is not None and len(ready) > 1:
                # Schedule fuzzing: seeded ready-queue tie-breaking.  Any
                # rotation is a legal cooperative schedule; MPI semantics
                # must survive all of them (see repro.check.fuzz).
                engine.fuzz.perturb_ready(ready)
            task = ready.popleft()
            task._queued = False
            if task.finished:
                self._ready_dead -= 1
                continue
            self.current = task
            value, task._wake_value = task._wake_value, None
            if self._last_ran is not task and self.switch_cost > 0:
                self.busy_time += self.switch_cost
                engine.schedule_discard(self.switch_cost, self._resume_event,
                                        task, value)
                return
            self._resume(task, value)
            # The task charged (still current, resumes via a timed event)
            # or released the CPU.  Keep dispatching inline only while the
            # engine stays quiet; otherwise preserve event-queue ordering.
            if self.current is not None:
                return
            if ready and not engine.quiet_now():
                self._ensure_dispatch()
                return

    def _resume_event(self, task: Task, value: Any, pending=None) -> None:
        """Engine-event entry point for resuming ``task``."""
        self._resume(task, value, pending)
        if self.current is None:
            self._release_cpu()

    def _resume(self, task: Task, value: Any, pending=None) -> None:
        """Advance ``task``'s generator, interpreting its system calls.

        Returns with ``self.current`` still set iff the task is charging
        (a timed ``_resume_event`` is queued); otherwise the CPU has been
        released and the *caller* is responsible for dispatching next
        (``_dispatch`` loops inline, ``_resume_event`` calls
        ``_release_cpu``).  ``pending``: the call the task made while owing.
        """
        if task.finished:
            # Killed mid-charge or mid-switch: kill() freed the CPU then,
            # and whoever holds it now must not lose it to this stale event.
            return
        self._last_ran = task
        engine = self.engine
        send = task.gen.send
        running = TaskState.RUNNING
        while True:
            task.state = running
            try:
                if pending is None:
                    syscall = send(value)
                elif pending.__class__ is StopIteration:
                    raise pending
                else:
                    syscall, pending = pending, None
            except StopIteration as stop:
                if not self.owed:
                    self.current = None
                    task._finish(result=stop.value)
                    return
                syscall = stop
            except BaseException as exc:
                self.current = None
                self.owed = 0  # the debt dies with the task
                task._finish(exception=exc)
                # Not a tail position: the exception propagates through the
                # engine, so any further dispatch must stay queued.
                self._ensure_dispatch()
                raise
            value = None
            if self.owed:
                # Pay first — together with a Charge (one event); any other
                # call, or the task's end, takes effect at the later time.
                cost, self.owed = self.owed, 0
                if isinstance(syscall, Charge):
                    cost, syscall = cost + syscall.duration, None
                task.state = TaskState.CHARGING
                self.busy_time += cost
                task.cpu_time += cost
                engine.schedule_discard(cost, self._resume_event, task, None,
                                        syscall)
                return
            cls = syscall.__class__
            if cls is Charge:
                duration = syscall.duration
                if duration == 0:
                    continue
                task.state = TaskState.CHARGING
                self.busy_time += duration
                task.cpu_time += duration
                engine.schedule_discard(duration, self._resume_event, task, None)
                return
            if cls is Wait:
                waitable = syscall.waitable
                acquired, wait_value = waitable._try_acquire(task)
                if acquired:
                    value = wait_value
                    continue
                task.state = TaskState.BLOCKED
                task.waiting_on = waitable
                self.current = None
                return
            if cls is GetTime:
                value = engine._now
                continue
            if cls is Sleep:
                task.state = TaskState.SLEEPING
                self.current = None
                engine.schedule_discard(syscall.duration, self._wake_sleeper, task)
                return
            if cls is ClockSleep:
                task.state = TaskState.SLEEPING
                self.current = None
                engine.schedule_clock(syscall.duration, self,
                                      self._wake_sleeper, task)
                return
            if cls is YieldCPU:
                task.state = TaskState.READY
                self.current = None
                task._queued = True
                self._ready.append(task)
                return
            if cls is ClockCharge:
                duration = syscall.duration
                if duration == 0:
                    continue
                task.state = TaskState.CLOCK_CHARGING
                self.busy_time += duration
                task.cpu_time += duration
                engine.schedule_clock(duration, self, self._resume_event,
                                      task, None)
                return
            raise SimulationError(
                f"task {task.name} yielded {syscall!r}, which is not one of "
                "the system calls of repro.sim.coroutines")

    def _wake_sleeper(self, task: Task) -> None:
        if task.finished:
            return
        task.state = TaskState.READY
        task._queued = True
        self._ready.append(task)
        current = self.current
        if current is None:
            self._release_cpu()
        elif current.state is TaskState.CLOCK_CHARGING:
            self.engine.expose_clock(self)
        # else: the CPU is busy; whoever releases it dispatches.

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CPU {self.name} current={self.current} ready={len(self._ready)}>"
