"""Synchronization primitives for simulated tasks.

All primitives follow one protocol: a task yields ``wait(primitive)``; the
scheduler calls ``_try_acquire(task)`` which either succeeds immediately or
registers the task as a waiter.  Signalling wakes waiters in FIFO order via
``task.cpu.make_ready`` — waking is therefore correct across CPUs, which the
rendezvous protocol relies on (cross-node signalling itself goes through
the network models; these primitives are only shared between threads of
one simulated process).

Waiter queues are plain lists: a 1024-rank world holds thousands of
primitives that never see a waiter, or only one at a time, and an empty
list costs under a tenth of an empty ``collections.deque`` (whose first
64-slot block is allocated up front).  The only FIFO that can grow deep,
a mailbox's item queue, gets its deque on the first item that waits.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cpu import Task


class Waitable(Protocol):
    """Anything a task may block on."""

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        """Return ``(True, value)`` if available now, else register waiter."""
        ...  # pragma: no cover


def _pop_live(waiters: list) -> "Task | None":
    """Pop the first waiter that is still alive (killed tasks are skipped)."""
    while waiters:
        task = waiters.pop(0)
        if not task.finished:
            return task
    return None


class Flag:
    """A one-shot event flag: waiters block until :meth:`set` is called.

    Waiting on an already-set flag succeeds immediately; the wait evaluates
    to the value passed to ``set``.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "flag"
        self.is_set = False
        self.value: Any = None
        self._waiters: list["Task"] = []

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self.is_set:
            return True, self.value
        self._waiters.append(task)
        return False, None

    def set(self, value: Any = None) -> None:
        """Set the flag, waking all waiters.  Idempotent (first value wins)."""
        if self.is_set:
            return
        self.is_set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if not task.finished:
                task.cpu.make_ready(task, value)


class Mailbox:
    """Unbounded FIFO queue with blocking receive.

    ``wait(mailbox)`` evaluates to the oldest posted item.  Posting with
    waiters present hands the item directly to the first one (no queue
    traversal), which keeps delivery order strict.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "mailbox"
        #: Queued items: the empty tuple until the first item has to
        #: wait (see :meth:`_queue`), a deque from then on.
        self._items: deque[Any] | tuple = ()
        self._waiters: list["Task"] = []
        #: Set by a periodic polling thread to its CPU: a queued item
        #: ends that poller's inertness, so :meth:`post` re-exposes the
        #: CPU's hidden self-clock events (``Engine.expose_clock``).
        self.poller_cpu: Any = None

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self._items:
            return True, self._items.popleft()
        self._waiters.append(task)
        return False, None

    def post(self, item: Any) -> None:
        """Append an item, waking the first blocked receiver if any."""
        task = _pop_live(self._waiters)
        if task is not None:
            task.cpu.make_ready(task, item)
        else:
            self._queue(item)
            cpu = self.poller_cpu
            if cpu is not None:
                cpu.engine.expose_clock(cpu)

    def _queue(self, item: Any) -> None:
        """Queue ``item`` for a later receiver.  The deque is made on the
        first item that actually waits: most mailboxes hand every item
        straight to a blocked receiver and never need one."""
        if not isinstance(self._items, deque):
            self._items = deque()
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)


class _SelectEntry:
    """A MailboxSelect's registration inside one mailbox's waiter queue.

    Quacks enough like a Task for :meth:`Mailbox.post`/:func:`_pop_live`:
    ``finished`` turns True once the select has fired (or its task died),
    so stale registrations in the other mailboxes are skipped, and the
    ``cpu.make_ready`` call a post performs is rerouted into the select.
    """

    __slots__ = ("select", "mailbox", "cpu")

    def __init__(self, select: "MailboxSelect", mailbox: "Mailbox"):
        self.select = select
        self.mailbox = mailbox
        self.cpu = _SelectWake(select, mailbox)

    @property
    def finished(self) -> bool:
        return self.select._fired or self.select._task.finished


class _SelectWake:
    """The ``cpu`` shim of a :class:`_SelectEntry`."""

    __slots__ = ("select", "mailbox")

    def __init__(self, select: "MailboxSelect", mailbox: "Mailbox"):
        self.select = select
        self.mailbox = mailbox

    def make_ready(self, entry: "_SelectEntry", item: Any) -> None:
        self.select._fire(self.mailbox, item)


class MailboxSelect:
    """Waitable over several mailboxes: first posted item anywhere wins.

    ``yield wait(MailboxSelect(boxes))`` evaluates to ``(mailbox, item)``
    for the first item available on any of the mailboxes (drained in
    mailbox order when several already hold items — deterministic).  One
    instance is single-shot: build a fresh one per wait.

    This is the select() the multirail reassembly path needs: stripes of
    one logical transfer may arrive on *any* surviving rail once a rail
    has died, so the receiver cannot afford to commit to one mailbox.
    """

    def __init__(self, mailboxes: Iterable["Mailbox"], name: str | None = None):
        self.mailboxes = list(mailboxes)
        if not self.mailboxes:
            raise SimulationError("MailboxSelect needs at least one mailbox")
        self.name = name or "select"
        self._task: "Task | None" = None
        self._fired = False

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self._fired:
            raise SimulationError("MailboxSelect instances are single-shot")
        for mailbox in self.mailboxes:
            if mailbox._items:
                self._fired = True
                return True, (mailbox, mailbox._items.popleft())
        self._task = task
        for mailbox in self.mailboxes:
            mailbox._waiters.append(_SelectEntry(self, mailbox))
        return False, None

    def _fire(self, mailbox: "Mailbox", item: Any) -> None:
        if self._fired:  # pragma: no cover - defensive (finished guards)
            mailbox._queue(item)
            return
        self._fired = True
        task = self._task
        if task is None or task.finished:  # pragma: no cover - defensive
            mailbox._queue(item)
            return
        task.cpu.make_ready(task, (mailbox, item))


class Condition:
    """Condition variable: ``wait(cond)`` blocks until a notify.

    ``notify``/``notify_all`` may be called from tasks or plain event
    callbacks.  Under the cooperative scheduler no lock is needed: a
    task checks its predicate and waits without yielding in between.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "cond"
        self._waiters: list["Task"] = []

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        self._waiters.append(task)
        return False, None

    def notify(self, count: int = 1) -> None:
        """Wake up to ``count`` waiters."""
        for _ in range(count):
            task = _pop_live(self._waiters)
            if task is None:
                return
            task.cpu.make_ready(task, None)

    def notify_all(self) -> None:
        """Wake every waiter."""
        self.notify(count=len(self._waiters))
