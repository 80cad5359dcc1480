"""Marcel threads: named cooperative threads inside one simulated process."""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.coroutines import sleep, wait
from repro.sim.cpu import CPU, Task, TaskBody
from repro.sim.engine import Engine


class MarcelRuntime:
    """The thread runtime of one simulated process.

    Each MPI rank owns one runtime; the paper's thread population maps
    directly onto it: the persistent *main* (MPI control) thread, one
    persistent polling thread per Madeleine channel, and temporary threads
    for non-blocking sends and rendezvous request/acknowledgement
    processing (§4.2.3).

    ``switch_cost`` models the user-level context-switch time (Marcel's is
    sub-microsecond; default 150 ns).  Temporary-thread creation cost is
    not charged here — the calibrated handling constants of the devices
    include it, which keeps calibration in one place.
    """

    def __init__(self, engine: Engine, name: str, switch_cost: int = 150):
        self.engine = engine
        self.name = name
        self.cpu = CPU(engine, name=f"{name}.cpu", switch_cost=switch_cost)
        self._spawn_seq = 0

    def spawn(self, body: TaskBody | Callable[[], TaskBody],
              name: str | None = None, daemon: bool = False,
              recyclable: bool = False) -> Task:
        """Start a thread running ``body`` (a generator or generator fn)."""
        self._spawn_seq += 1
        label = f"{self.name}.{name or 'thread'}#{self._spawn_seq}"
        return self.cpu.spawn(body, name=label, daemon=daemon,
                              recyclable=recyclable)

    def spawn_temporary(self, body: TaskBody | Callable[[], TaskBody],
                        name: str) -> Task:
        """Spawn one of the paper's *temporary* threads (isend, rndv ops,
        overlapped collectives).

        Temporary threads are daemons: if the application exits while one
        is still draining, it must not be reported as a deadlock.

        The Task is *recyclable* (see ``CPU.spawn``): it leaves the CPU's
        roster once it finishes — million-message runs spawn a temporary
        thread per isend/rendezvous op, and without that every one lived
        until finalize.  A caller that keeps the handle may still join it
        (``yield wait(task)``), once: the join takes the task's result
        and the finished task keeps none.

        Under schedule fuzzing (see repro.check.fuzz) the thread's start
        is jittered by a seeded delay — temporary threads carry no timing
        contract, only ordering ones (send gates, rendezvous flags), so
        any jitter is a legal schedule.
        """
        fuzz = self.engine.fuzz
        if fuzz is not None:
            jitter = fuzz.spawn_jitter()
            if jitter:
                body = self._jittered(jitter, body)
        return self.spawn(body, name=name, daemon=True, recyclable=True)

    @staticmethod
    def _jittered(delay: int,
                  body: TaskBody | Callable[[], TaskBody]) -> TaskBody:
        if callable(body) and not hasattr(body, "send"):
            body = body()

        def wrapper() -> TaskBody:
            yield sleep(delay)
            result = yield from body
            return result

        return wrapper()

    @staticmethod
    def join(task: Task) -> Generator[Any, Any, Any]:
        """Generator helper: block until ``task`` finishes, return its result.

        Usage from a thread body: ``result = yield from MarcelRuntime.join(t)``.
        """
        result = yield wait(task)
        return result

    def live_threads(self) -> list[Task]:
        """Threads that have not finished (diagnostics / teardown)."""
        return self.cpu.live_tasks()

    def kill_daemons(self) -> int:
        """Terminate all live daemon threads (MPI_Finalize teardown).

        Returns the number of threads killed.
        """
        killed = 0
        for task in self.cpu.live_tasks():
            if task.daemon:
                task.kill()
                killed += 1
        return killed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MarcelRuntime {self.name} live={len(self.live_threads())}>"
