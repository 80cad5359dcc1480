"""System calls for coroutine tasks.

A simulated thread is a Python generator that *yields* instances of these
classes to its :class:`~repro.sim.cpu.CPU` scheduler.  The scheduler
interprets the yield, advances virtual time and/or blocks the task, and
resumes the generator with the call's result via ``gen.send(value)``.

The lowercase helper functions exist so task code reads naturally::

    def body():
        yield charge(us(2))          # burn 2 us of CPU (holds the CPU)
        item = yield wait(mailbox)   # block until a mailbox post
        yield sleep(us(10))          # release the CPU for 10 us

``cpu.owe(ns)`` is a plain call, not a system call: it accrues CPU cost
that the task pays at its next one (:meth:`repro.sim.cpu.CPU.owe`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.sync import Waitable


class SystemCall:
    """Base class for everything a task may yield to its scheduler."""

    __slots__ = ()


class Charge(SystemCall):
    """Consume ``duration`` ns of CPU time while *holding* the CPU.

    Other tasks on the same CPU cannot run until the charge completes —
    this is what models software overhead (packing, polling, protocol
    handling) stealing cycles from the application thread.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: int):
        if duration < 0:
            raise ValueError("charge duration must be >= 0")
        self.duration = int(duration)


class Sleep(SystemCall):
    """Release the CPU and become runnable again after ``duration`` ns."""

    __slots__ = ("duration",)

    def __init__(self, duration: int):
        if duration < 0:
            raise ValueError("sleep duration must be >= 0")
        self.duration = int(duration)


class ClockSleep(Sleep):
    """A :class:`Sleep` whose wake is a self-clock event of an idle poller.

    A periodic polling thread yields this for a between-poll pause it
    starts with an empty mailbox on an otherwise idle CPU.  Until some
    other event posts to that mailbox or readies a task on that CPU, the
    wake changes nothing outside the thread, so the engine files it where
    ``Engine.next_payload_time`` can see past it — idle pollers then
    fast-forward together instead of pinning each other awake.
    """

    __slots__ = ()


class ClockCharge(Charge):
    """A :class:`Charge` whose completion is a self-clock event.

    The ``poll_cost`` of a poll tick that starts with an empty mailbox
    and nothing else runnable on its CPU: the other half of the idle
    cycle :class:`ClockSleep` begins, hidden and re-exposed alike.
    """

    __slots__ = ()


class Wait(SystemCall):
    """Block on a :class:`~repro.sim.sync.Waitable` until it signals us.

    The value passed to the waitable's signal becomes the result of the
    ``yield``.
    """

    __slots__ = ("waitable",)

    def __init__(self, waitable: "Waitable"):
        self.waitable = waitable


class YieldCPU(SystemCall):
    """Go to the back of the run queue (cooperative yield)."""

    __slots__ = ()


class GetTime(SystemCall):
    """Evaluate to the current virtual time (integer ns)."""

    __slots__ = ()


def charge(duration: int) -> Charge:
    """Busy the CPU for ``duration`` ns."""
    return Charge(duration)


def sleep(duration: int) -> Sleep:
    """Release the CPU for ``duration`` ns."""
    return Sleep(duration)


def clock_sleep(duration: int) -> ClockSleep:
    """Release the CPU for ``duration`` ns; the wake is a self-clock event."""
    return ClockSleep(duration)


def clock_charge(duration: int) -> ClockCharge:
    """Busy the CPU for ``duration`` ns; the completion is a self-clock event."""
    return ClockCharge(duration)


def wait(waitable: Any) -> Wait:
    """Block until ``waitable`` signals."""
    return Wait(waitable)


# YieldCPU/GetTime carry no state, so every caller can share one frozen
# instance — busy-wait loops yield_cpu() millions of times in large runs.
_YIELD_CPU = YieldCPU()
_GET_TIME = GetTime()


def yield_cpu() -> YieldCPU:
    """Let other runnable tasks on this CPU proceed."""
    return _YIELD_CPU


def now() -> GetTime:
    """Read the virtual clock from inside a task."""
    return _GET_TIME
