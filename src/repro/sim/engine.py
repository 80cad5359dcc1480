"""The discrete-event engine: a clock and an event queue.

Determinism contract: events scheduled for the same timestamp fire in the
order they were scheduled (FIFO), enforced by a monotonically increasing
sequence number used as a priority tie-breaker.  Nothing in the simulator
uses wall-clock time or unseeded randomness, so a run is a pure function
of its inputs.

Hot-path layout (the per-event cost dominates every benchmark's
wall-clock, see DESIGN.md "Simulator performance"):

- the heap stores ``(time, seq, event)`` tuples so ``heapq`` compares
  C-level tuples instead of calling ``Event.__lt__``;
- zero-delay events — overwhelmingly CPU dispatch requests — bypass the
  heap entirely and live in a FIFO deque.  Because an entry's timestamp
  equals the clock when it was appended and the clock cannot pass a
  queued event, the deque is always sorted by ``(time, seq)``; ``step``
  merely compares the two queue heads, preserving the exact global
  ordering a single heap would produce;
- internal fire-and-forget events (charge completions, sleeper wakes,
  dispatches) go through :meth:`call_soon` / :meth:`schedule_discard`,
  which build no handle for the caller;
- cancellation is lazy (O(1)) with an O(1) live-event counter behind
  :meth:`pending`; when cancelled events outnumber live ones the queues
  are compacted so a cancel-heavy workload (retransmit timers) cannot
  bloat the heap.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.check import NULL_CHECKER
from repro.errors import SimulationError
from repro.sim.metrics import NULL_INSTRUMENTS, Instrumentation
from repro.sim.trace import NULL_TRACER


def seed_namespace(*parts: Any) -> str:
    """Canonical ``/``-joined RNG namespace string.

    Every seeded stream in the repository derives its namespace through
    this one helper — :meth:`Engine.rng`, the schedule fuzzer's
    ``fuzz/{seed}/…`` streams, the randomized workloads — so namespace
    derivation cannot silently drift between subsystems (it used to be
    re-implemented with f-strings at each site).
    """
    return "/".join(str(part) for part in parts)


@dataclass(frozen=True)
class EngineConfig:
    """Everything optional about an engine, in one declarative object.

    One serializable configuration for every optional feature, accepted by
    :class:`Engine` and :class:`~repro.cluster.session.MPIWorld`::

        world = MPIWorld(cluster, engine_config=EngineConfig(
            instrumentation=True, checker=True, fuzz_seed=17))

    ``trace_sink`` names a file path; when set, instrumentation is
    implied and :meth:`MPIWorld.shutdown` exports the Chrome trace there.
    """

    #: Root seed for every engine RNG namespace (:meth:`Engine.rng`).
    seed: int = 0
    #: Install the metrics/tracing facade (:mod:`repro.sim.metrics`).
    instrumentation: bool = False
    #: Install the online MPI semantics checker (:mod:`repro.check`).
    checker: bool = False
    #: Raise on the first checker violation (else accumulate).
    checker_raise: bool = True
    #: Install the schedule fuzzer with this seed (None = baseline).
    fuzz_seed: int | None = None
    #: Extra :class:`~repro.check.fuzz.ScheduleFuzz` parameters.
    fuzz_params: Mapping[str, Any] = field(default_factory=dict)
    #: Chrome-trace export path, written at MPI_Finalize (implies
    #: ``instrumentation``).
    trace_sink: str | None = None
    #: Engine-wide collective algorithm selection: one registry name
    #: (``"hier"``) or ``"op=name"`` pairs
    #: (``"allreduce=multilane,bcast=binomial"``); see
    #: :mod:`repro.mpi.coll`.  Validated against the registry by
    #: :meth:`Engine.apply_config`.  None runs the defaults.
    coll_algorithm: str | None = None

    @property
    def wants_instrumentation(self) -> bool:
        return self.instrumentation or self.trace_sink is not None


def install_instrumentation(engine: "Engine") -> Instrumentation:
    """Install and return a live metrics/tracing facade on ``engine``.

    The facade's tracer also becomes ``engine.tracer``, so one call
    turns on both the typed instruments and the record stream.
    """
    instruments = Instrumentation(engine)
    engine.instruments = instruments
    engine.tracer = instruments.tracer
    return instruments


def install_checker(engine: "Engine", raise_on_violation: bool = True):
    """Install and return the live online semantics checker on ``engine``
    (imports :mod:`repro.check.checker`, which no other run compiles).

    Every protocol hook in the stack (ADI sends/matches, ch_mad packet
    handlers, Madeleine transmissions, the reliable transport,
    MPI_Finalize) starts shadow-checking its invariants; violations
    raise :class:`~repro.errors.CheckViolation` (or, with
    ``raise_on_violation=False``, accumulate in ``checker.violations``).
    """
    from repro.check.checker import Checker
    checker = Checker(engine, raise_on_violation=raise_on_violation)
    engine.checker = checker
    return checker


class Event:
    """A scheduled callback.  Returned by :meth:`Engine.schedule`.

    Events may be cancelled; a cancelled event stays queued but is
    skipped when popped (lazy deletion, O(1) cancel).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine",
                 "_done")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any],
                 args: tuple, engine: "Engine | None" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state} {self.callback!r}>"


#: Compaction is considered once at least this many cancelled events are
#: queued (tiny queues are not worth rebuilding).
_COMPACT_MIN = 64


class Engine:
    """Priority-queue event loop over integer-nanosecond virtual time."""

    def __init__(self, seed: int = 0, *,
                 config: EngineConfig | None = None) -> None:
        if config is not None:
            seed = config.seed
        #: The declarative configuration this engine was built from
        #: (None when constructed through the bare ``Engine(seed)`` path).
        self.config = config
        self._now: int = 0
        self._seq: int = 0
        #: Timed events as (time, seq, Event) heap entries.
        self._queue: list[tuple[int, int, Event]] = []
        #: Zero-delay events in FIFO (== (time, seq)) order.
        self._immediate: deque[Event] = deque()
        #: Idle pollers' self-clock events (sleep wakes and poll-cost
        #: charge completions) as (time, seq, Event, cpu) heap entries —
        #: same ordering contract, filed apart so
        #: :meth:`next_payload_time` can see past them (one entry per
        #: idle periodic poller, so this heap stays tiny).
        self._clock_queue: list[tuple[int, int, Event, Any]] = []
        #: Per-CPU mirror of the clock queue's times (cpu -> time
        #: min-heap).  :meth:`next_payload_time` used to linear-scan the
        #: clock queue per idle-skip — fine at 2 pollers, O(ranks²) in a
        #: 1024-rank quiescent world.  The mirror makes the per-CPU peek
        #: O(1): this is what lets idle ranks fast-forward at ~zero cost
        #: regardless of world size.
        self._clock_by_cpu: dict[Any, list[int]] = {}
        #: CPUs whose owner stopped being inert while clock entries were
        #: pending (:meth:`expose_clock`): cpu -> latest such entry's
        #: time.  Every CPU's :meth:`next_payload_time` is bounded by
        #: those entries until they have fired.
        self._clock_exposed: dict[Any, int] = {}
        #: Cancelled events still sitting in either queue.
        self._cancelled: int = 0
        self._running = False
        #: Number of events executed so far (diagnostic).
        self.events_executed: int = 0
        #: Structured tracing hook (off by default; see repro.sim.trace).
        self.tracer = NULL_TRACER
        #: Metrics + tracing facade (off by default; see repro.sim.metrics).
        self.instruments = NULL_INSTRUMENTS
        #: Online MPI semantics checker (off by default; see repro.check).
        self.checker = NULL_CHECKER
        #: Schedule-fuzz perturbations (None = deterministic baseline
        #: schedule; see repro.check.fuzz.install_fuzz).
        self.fuzz = None
        #: Run-wide collective algorithm selection (operation -> registry
        #: name), filled from ``EngineConfig.coll_algorithm``.
        self.coll_selection: dict[str, str] = {}
        #: Root seed for every random decision made inside this simulation.
        self.seed = int(seed)
        self._rngs: dict[str, random.Random] = {}
        if config is not None:
            self.apply_config(config)

    def apply_config(self, config: EngineConfig) -> "Engine":
        """Install whatever ``config`` asks for; returns ``self``."""
        self.config = config
        if config.wants_instrumentation:
            install_instrumentation(self)
        if config.checker:
            install_checker(self, raise_on_violation=config.checker_raise)
        if config.fuzz_seed is not None:
            from repro.check.fuzz import install_fuzz
            install_fuzz(self, config.fuzz_seed, **dict(config.fuzz_params))
        if config.coll_algorithm is not None:
            # Validate against the registry now, so a typo fails the run
            # before any rank starts (lazy: the MPI layer imports us).
            from repro.mpi.coll import parse_selection
            self.coll_selection = parse_selection(config.coll_algorithm)
        return self

    def rng(self, namespace: str = "") -> random.Random:
        """The engine-owned RNG for ``namespace``, seeded from the root seed.

        All stochastic decisions (fault injection, randomized workloads)
        must draw from an engine RNG so a run is a pure function of
        ``(configuration, seed)``.  Namespacing keeps independent consumers
        from perturbing each other's streams.
        """
        gen = self._rngs.get(namespace)
        if gen is None:
            gen = self._rngs[namespace] = random.Random(
                seed_namespace(self.seed, namespace))
        return gen

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in integer nanoseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        time = self._now + int(delay)
        event = Event(time, self._seq, callback, args, self)
        self._seq += 1
        if time == self._now:
            self._immediate.append(event)
        else:
            heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        time = int(time)
        event = Event(time, self._seq, callback, args, engine=self)
        self._seq += 1
        if time == self._now:
            self._immediate.append(event)
        else:
            heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Queue ``callback(*args)`` at the current time (no handle).

        Internal fast path: no handle is returned — use :meth:`schedule`
        when a cancellable one is needed.  Ordering is identical to
        ``schedule(0, ...)``.
        """
        self._immediate.append(
            Event(self._now, self._seq, callback, args, self))
        self._seq += 1

    def schedule_discard(self, delay: int, callback: Callable[..., Any],
                         *args: Any) -> None:
        """Schedule a fire-and-forget event ``delay`` ns from now.

        Like :meth:`call_soon` but timed: no handle is returned, so the
        callback site must never need to cancel it.  The CPU scheduler's
        charge completions and sleeper wakes — the bulk of all timed
        events — go through here.
        """
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule {delay} ns in the past")
            self.call_soon(callback, *args)
            return
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue,
                       (time, seq, Event(time, seq, callback, args, self)))

    def schedule_clock(self, delay: int, cpu: Any,
                       callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a self-clock event of an idle poller on ``cpu``.

        Fire-and-forget like :meth:`schedule_discard`, with the same
        ``(time, seq)`` — :meth:`step_batch` merges all three
        queues, so execution order is exactly what one heap would give —
        but filed in the clock queue.  The caller vouches that ``cpu``'s
        poller is *inert*: its mailbox is empty and nothing else is
        runnable or running on ``cpu``, so firing the event changes
        nothing outside that poller and :meth:`next_payload_time` may
        hide it from every other CPU.  Whoever ends the inertness must
        call :meth:`expose_clock`.
        """
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._clock_queue,
                       (time, seq, Event(time, seq, callback, args, self), cpu))
        percpu = self._clock_by_cpu.get(cpu)
        if percpu is None:
            percpu = self._clock_by_cpu[cpu] = []
        heapq.heappush(percpu, time)

    def expose_clock(self, cpu: Any) -> None:
        """``cpu`` stopped being inert: un-hide its pending clock entries.

        Called for the two mutations that make a hidden event matter to
        others — a post into a periodic poller's mailbox, a task made
        ready on a CPU that a hidden charge holds.  What the poller does
        when the entry fires (run a handler, release the CPU to a
        sender) is queued only then, so until then the entry itself must
        bound every fast-forward.  Entries filed later start hidden.
        """
        percpu = self._clock_by_cpu.get(cpu)
        if percpu:
            self._clock_exposed[cpu] = max(percpu)

    # -- cancellation accounting ------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled += 1
        live = (len(self._queue) + len(self._immediate)
                + len(self._clock_queue) - self._cancelled)
        if self._cancelled >= _COMPACT_MIN and self._cancelled > live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from both queues (heap order preserved).

        Both queues are compacted *in place*: :meth:`step_batch` holds
        local aliases to them across callbacks, and a cancel storm inside
        a callback must not strand those aliases on a dead snapshot.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        immediate = self._immediate
        if any(event.cancelled for event in immediate):
            keep = [event for event in immediate if not event.cancelled]
            immediate.clear()
            immediate.extend(keep)
        self._cancelled = 0

    # -- execution --------------------------------------------------------

    def _peek_time(self) -> int | None:
        """Timestamp of the next non-cancelled event, or None if drained.

        Cancelled heads are dropped in passing so the peek stays O(1)
        amortized.
        """
        queue = self._queue
        immediate = self._immediate
        while immediate and immediate[0].cancelled:
            self._cancelled -= 1
            immediate.popleft()
        while queue and queue[0][2].cancelled:
            self._cancelled -= 1
            heapq.heappop(queue)
        best: int | None = None
        if immediate:
            best = immediate[0].time
        if queue and (best is None or queue[0][0] < best):
            best = queue[0][0]
        clock = self._clock_queue
        if clock and (best is None or clock[0][0] < best):
            best = clock[0][0]
        return best

    def next_payload_time(self, cpu: Any) -> int | None:
        """When the next event that could affect ``cpu`` fires.

        This is where "which pending events may a fast-forward skip
        past" is decided (the idle-poll fast-forward skips to this
        bound).  Timed and zero-delay events never; clock entries
        (:meth:`schedule_clock`) of *other* CPUs always, unless that CPU
        was re-exposed (:meth:`expose_clock`) and the entries pending
        then have not all fired.  An unexposed entry belongs to an inert
        poller: firing it only files that poller's next clock entry, so
        nothing can post a payload, wake a task or change the ready
        count on ``cpu`` before some event counted here fires first —
        any number of idle pollers see past each other's whole cycle.
        ``cpu``'s own clock entries are always counted: another poller
        waking on this CPU flips its busy/idle decision.
        """
        queue = self._queue
        immediate = self._immediate
        while immediate and immediate[0].cancelled:
            self._cancelled -= 1
            immediate.popleft()
        while queue and queue[0][2].cancelled:
            self._cancelled -= 1
            heapq.heappop(queue)
        best: int | None = None
        if immediate:
            best = immediate[0].time
        if queue and (best is None or queue[0][0] < best):
            best = queue[0][0]
        # O(1) per-CPU peek via the clock-queue mirror (an idle 1024-rank
        # world calls this once per poller fast-forward; a linear scan of
        # the clock queue here was O(ranks) per call, O(ranks²) per tick).
        by_cpu = self._clock_by_cpu
        percpu = by_cpu.get(cpu)
        if percpu and (best is None or percpu[0] < best):
            best = percpu[0]
        exposed = self._clock_exposed
        if exposed:
            for other, until in tuple(exposed.items()):
                percpu = by_cpu[other]
                if not percpu or percpu[0] > until:
                    del exposed[other]  # all fired: hidden again
                elif best is None or percpu[0] < best:
                    best = percpu[0]
        return best

    def idle_backlog(self) -> int | None:
        """Live events other than unexposed clock entries — None if one
        is known to be timed or an exposed clock entry is pending.

        0: inert pollers' entries only (:meth:`schedule_clock`), whose
        firing just files the next, so whoever is blocked stays blocked.
        A count: zero-delay events to run before asking again.
        """
        by_cpu = self._clock_by_cpu
        if len(self._queue) > self._cancelled or any(
                by_cpu[cpu] and by_cpu[cpu][0] <= until
                for cpu, until in self._clock_exposed.items()):
            return None
        return len(self._queue) + len(self._immediate) - self._cancelled

    def quiet_now(self) -> bool:
        """True iff no pending event is due at the current time.

        This is the legality test for inline dispatch: when the engine
        is quiet *now*, running a ready task immediately is
        indistinguishable from scheduling a zero-delay dispatch event,
        because that event would be the unique next thing to execute.
        """
        t = self._peek_time()
        return t is None or t > self._now

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        return self.step_batch(1) == 1

    def step_batch(self, limit: int, stop_flag: Any = None) -> int:
        """Execute up to ``limit`` events in one dispatch sweep.

        Bit-identical to calling :meth:`step` in a loop — events still
        fire in exact global (time, seq) order — but the per-event
        Python overhead (method call, queue-head rebinding) is paid once
        per *batch*, and runs of same-timestamp zero-delay events (the
        cross-rank wire-delivery cascades of a large world, where one
        tick delivers to hundreds of ranks at the same nanosecond) drain
        through a tight inner loop that skips the 3-way merge entirely
        while the timed heaps provably hold nothing due now.

        ``stop_flag``, when given, is an indexable whose ``[0]`` entry is
        re-checked *between* events; the sweep stops before the next
        event once it goes true.  An index read is cheaper than calling
        a closure per event, and the check lands at exactly the points
        where a ``step()`` caller's loop condition would — so
        :meth:`MPIWorld.run <repro.cluster.session.MPIWorld.run>` sees
        the same event sequence batched as unbatched.

        Returns the number of events executed (less than ``limit`` only
        when the queues drained or ``stop_flag`` went true).
        """
        queue = self._queue
        immediate = self._immediate
        clock = self._clock_queue
        executed = 0
        check_stop = stop_flag is not None
        while executed < limit:
            if check_stop and stop_flag[0]:
                break
            # Three-way (time, seq) merge of the queue heads; src tracks
            # which structure currently holds the minimum.
            src = 0
            if immediate:
                head_event = immediate[0]
                time = head_event.time
                seq = head_event.seq
                src = 1
            if queue:
                head = queue[0]
                if src == 0 or head[0] < time or (head[0] == time
                                                  and head[1] < seq):
                    time = head[0]
                    seq = head[1]
                    src = 2
            if clock:
                head = clock[0]
                if src == 0 or head[0] < time or (head[0] == time
                                                  and head[1] < seq):
                    src = 3
            if src == 0:
                break
            if src == 1:
                event = immediate.popleft()
            elif src == 2:
                event = heapq.heappop(queue)[2]
            else:
                entry = heapq.heappop(clock)
                event = entry[2]
                # Keep the per-CPU mirror in sync: a CPU's clock entries
                # pop in its own (time, seq) order, so the global pop's
                # time is that CPU's minimum.
                heapq.heappop(self._clock_by_cpu[entry[3]])
            if event.cancelled:
                self._cancelled -= 1
                continue
            # Marked done on pop: a cancel() arriving while (or after) the
            # callback runs must not touch the queued-cancelled counter.
            event._done = True
            now = event.time
            self._now = now
            self.events_executed += 1
            event.callback(*event.args)
            executed += 1
            # Same-timestamp sweep: while neither timed heap holds an
            # entry due *now*, every deque head at `now` is the global
            # (time, seq) minimum (new zero-delay events always append
            # with larger seq; heap pushes from callbacks land strictly
            # later than `now` or in the deque).  The heap-head checks
            # re-run per event because a callback may schedule_clock(0)
            # or leave a same-time heap entry behind.
            while immediate and executed < limit:
                event = immediate[0]
                if event.time != now:
                    break
                if (queue and queue[0][0] == now) or \
                        (clock and clock[0][0] == now):
                    break
                if check_stop and stop_flag[0]:
                    return executed
                immediate.popleft()
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._done = True
                self.events_executed += 1
                event.callback(*event.args)
                executed += 1
        return executed

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or a bound is hit).

        ``until``: stop before executing any event past this virtual time
        (the clock is advanced to ``until`` when stopping for this reason).
        ``max_events``: safety valve against runaway simulations.
        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        executed = 0
        step = self.step
        try:
            if until is None and max_events is None:
                # Unbounded drain: sweep in large batches (identical event
                # order, amortized dispatch overhead).
                while self.step_batch(4096):
                    pass
            else:
                while True:
                    head = self._peek_time()
                    if head is None:
                        if until is not None:
                            self._now = max(self._now, until)
                        break
                    if until is not None and head > until:
                        self._now = max(self._now, until)
                        break
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "possible livelock (a polling loop that never sleeps?)"
                        )
                    step()
                    executed += 1
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return (len(self._queue) + len(self._immediate)
                + len(self._clock_queue) - self._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now} pending={self.pending()}>"
