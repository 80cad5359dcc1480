"""Network polling threads (paper §3.3 and §4.2.3).

The paper assigns one Marcel thread to poll each Madeleine channel, with a
per-protocol polling *frequency*: "low latency networks with cheap polling
mechanisms [are] polled more frequently than TCP-like networks only
providing the expensive select system call".

Two polling modes model that split:

- :attr:`PollMode.EVENT` — SCI/BIP style.  Detection is a cheap memory
  flag that Marcel's idle loop checks continuously; we model it as an
  event-driven wake (the NIC posts into a mailbox) plus a per-message
  poll cost.  Detection latency is the scheduler latency, near zero when
  the CPU is idle — exactly the behaviour the paper credits Marcel for.
- :attr:`PollMode.PERIODIC` — TCP style.  The thread charges
  ``poll_cost`` (the select call) every ``period`` whether or not traffic
  arrives.  This standing cost is the source of the multi-protocol
  interference measured in the paper's Figure 9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.sim.coroutines import (
    charge,
    clock_charge,
    clock_sleep,
    sleep,
    wait,
)
from repro.sim.cpu import Task
from repro.sim.sync import Mailbox
from repro.marcel.thread import MarcelRuntime

#: A handler is a generator function consuming one delivered item; it may
#: charge CPU, block, and spawn temporary threads via its closure.
Handler = Callable[[Any], Generator]


class PollMode(enum.Enum):
    """How arrivals on a channel are detected."""

    EVENT = "event"        # cheap flag check, wake-on-arrival (SCI, BIP)
    PERIODIC = "periodic"  # expensive periodic syscall (TCP select)


@dataclass
class PollSource:
    """What a polling thread watches.

    ``mailbox`` receives delivered items from the NIC model.  For
    :attr:`PollMode.PERIODIC` sources the mailbox is still the hand-off
    queue, but the thread only looks at it every ``period`` ns and pays
    ``poll_cost`` per look; for :attr:`PollMode.EVENT` sources the thread
    blocks on the mailbox and pays ``poll_cost`` per *item*.
    """

    name: str
    mode: PollMode
    mailbox: Mailbox
    poll_cost: int   # ns charged per poll (EVENT: per item; PERIODIC: per tick)
    period: int = 0  # ns between polls (PERIODIC only)
    #: Poll interval while the CPU has nothing else to run.  Marcel folds
    #: polling into its idle loop (§3.3), so an otherwise-idle process
    #: polls much more often than the contended-period; 0 = same as
    #: ``period``.
    idle_period: int = 0

    def __post_init__(self) -> None:
        if self.mode is PollMode.PERIODIC and self.period <= 0:
            raise ValueError(f"periodic source {self.name} needs period > 0")


class PollingThread:
    """One persistent polling thread bound to one poll source.

    The handler runs *inline* in the polling thread (charging its costs on
    the shared CPU).  In EVENT mode it is entered *owing* the item's
    ``poll_cost`` (``CPU.owe``): its first system call pays, and it must
    not post, set or schedule anything before that.  Per the paper's
    deadlock rule, a handler must never perform a blocking send itself;
    it spawns a temporary thread instead — that discipline is the
    device's responsibility (see :mod:`repro.mpi.devices.ch_mad.polling`).
    """

    def __init__(self, runtime: MarcelRuntime, source: PollSource,
                 handler: Handler):
        self.runtime = runtime
        self.source = source
        self.handler = handler
        self.items_handled = 0
        self.polls = 0
        self.task: Task = runtime.spawn(
            self._body(), name=f"poll.{source.name}", daemon=True
        )
        checker = runtime.engine.checker
        if checker.enabled:
            # §4.2.3 discipline: the checker flags any send performed
            # from a registered polling thread.
            checker.register_poller(self.task, source.name)

    def _body(self) -> Generator:
        if self.source.mode is PollMode.EVENT:
            return self._event_body()
        return self._periodic_body()

    def _event_body(self) -> Generator:
        mailbox = self.source.mailbox
        cost = self.source.poll_cost
        cpu = self.runtime.cpu
        engine = self.runtime.engine
        while True:
            item = yield wait(mailbox)
            self.polls += 1
            ins = engine.instruments
            if ins.enabled:
                ins.count("poll.wakeups", 1, source=self.source.name,
                          mode="event")
                ins.emit("poll.wake", thread=self.source.name, mode="event")
            if cost:
                # Accrued, not charged: the handler pays it with its own
                # costs before doing anything observable (CPU.owe).
                cpu.owe(cost)
            self.items_handled += 1
            yield from self.handler(item)
            # Parked on the mailbox, keep nothing of a handled message.
            del item

    def _periodic_body(self) -> Generator:
        mailbox = self.source.mailbox
        cost = self.source.poll_cost
        period = self.source.period
        idle_period = self.source.idle_period or period
        cpu = self.runtime.cpu
        engine = self.runtime.engine
        # A queued item ends this thread's inertness: the post re-exposes
        # whatever self-clock event is pending (see Engine.expose_clock).
        mailbox.poller_cpu = cpu
        fuzz = engine.fuzz
        if fuzz is not None:
            # Schedule fuzzing: offset this poller's first tick.  A
            # periodic poller's phase is an accident of start-up order;
            # protocol correctness must not depend on it.
            offset = fuzz.poller_phase(self.source.name)
            if offset:
                yield sleep(offset)
        while True:
            self.polls += 1
            ins = engine.instruments
            if ins.enabled:
                ins.count("poll.wakeups", 1, source=self.source.name,
                          mode="periodic")
            if cost:
                # The whole idle cycle self-clocks: with the mailbox empty
                # and nothing else runnable here, this select completes
                # without anyone else being able to tell — file it like
                # the wake (clock_charge), so peer pollers' fast-forwards
                # see past the charge too.
                if len(mailbox) == 0 and cpu.ready_count() == 0:
                    yield clock_charge(cost)
                else:
                    yield charge(cost)
            handled_any = False
            while len(mailbox) > 0:
                handled_any = True
                got, item = mailbox._try_acquire(None)  # non-blocking: queue non-empty
                assert got
                self.items_handled += 1
                if ins.enabled:
                    ins.emit("poll.wake", thread=self.source.name,
                             mode="periodic")
                yield from self.handler(item)
                del item
            if not handled_any:
                # Marcel idle-loop integration: poll tightly while nothing
                # else wants the CPU, back off to the full period otherwise.
                busy = cpu.ready_count() > 0
                pause = period if busy else idle_period
                if ins.enabled:
                    ins.count("poll.idle_ns", pause, source=self.source.name)
                if busy:
                    yield sleep(pause)
                    continue
                # The mailbox is empty right now (handled_any is False and
                # the drain loop above saw it empty) and the CPU idle, so
                # this thread is inert until some *other* engine event
                # posts or readies a task here: the wake is a self-clock
                # event (clock_sleep) peer fast-forwards can see past.
                skipped = self._idle_skip(pause)
                if skipped:
                    # Idle-poll fast-forward: absorb `skipped` whole
                    # wake/charge/check cycles into one sleep, with
                    # identical bookkeeping (see _idle_skip).
                    yield clock_sleep(pause + skipped * (pause + cost))
                else:
                    yield clock_sleep(pause)

    def _idle_skip(self, pause: int) -> int:
        """Idle ticks that provably find an empty mailbox — skip them.

        With the CPU otherwise idle and the mailbox empty, the poll loop
        is a fixed-period self-clock: wake, charge ``poll_cost``, find
        the mailbox empty, sleep ``pause``.  Nothing can change its
        inputs before the next *payload* event fires (every arrival and
        every wake of a competing task is an engine event;
        ``Engine.next_payload_time`` excludes the self-clock wakes and
        charges of peer pollers that are themselves inert, which cannot
        touch this CPU or this mailbox), so each tick whose mailbox
        *check* lands strictly before that event is pure overhead: with
        the charges visible, two idle tcp pollers bounded each other to
        under one cycle and 156 251 events ran to move 80 messages.

        This computes how many such ticks are ahead, performs their
        bookkeeping arithmetically — same ``polls``, same per-task
        ``cpu_time`` and CPU ``busy_time``, same ``poll.wakeups`` /
        ``poll.idle_ns`` counter totals — and returns the count; the
        caller folds them into one long sleep.  Virtual time, metrics
        and traces are bit-identical to ticking through; only
        ``events_executed`` (a diagnostic) shrinks.
        """
        engine = self.runtime.engine
        next_event = engine.next_payload_time(self.runtime.cpu)
        if next_event is None:
            return 0
        cost = self.source.poll_cost
        cycle = pause + cost
        # Checks happen at now + i*cycle (i >= 1); each skipped check must
        # precede the next real event *strictly* (an event at exactly the
        # check time could post to the mailbox first by seq order).
        skipped = (next_event - 1 - engine.now) // cycle
        if skipped <= 0:
            return 0
        self.polls += skipped
        if cost:
            burned = skipped * cost
            task = self.task
            task.cpu_time += burned
            task.cpu.busy_time += burned
        ins = engine.instruments
        if ins.enabled:
            ins.count("poll.wakeups", skipped, source=self.source.name,
                      mode="periodic")
            ins.count("poll.idle_ns", skipped * pause, source=self.source.name)
        return skipped

    def stop(self) -> None:
        """Kill the polling thread (session teardown)."""
        self.task.kill()
