"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_initial_time_is_zero():
    assert Engine().now == 0


def test_schedule_runs_callback_at_delay():
    engine = Engine()
    seen = []
    engine.schedule(100, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100]
    assert engine.now == 100


def test_schedule_with_args():
    engine = Engine()
    seen = []
    engine.schedule(5, seen.append, "x")
    engine.run()
    assert seen == ["x"]


def test_events_fire_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(30, seen.append, "c")
    engine.schedule(10, seen.append, "a")
    engine.schedule(20, seen.append, "b")
    engine.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    engine = Engine()
    seen = []
    for label in "abcdef":
        engine.schedule(42, seen.append, label)
    engine.run()
    assert seen == list("abcdef")


def test_nested_scheduling_from_callbacks():
    engine = Engine()
    seen = []

    def outer():
        seen.append(("outer", engine.now))
        engine.schedule(7, inner)

    def inner():
        seen.append(("inner", engine.now))

    engine.schedule(3, outer)
    engine.run()
    assert seen == [("outer", 3), ("inner", 10)]


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: engine.schedule(0, seen.append, engine.now))
    engine.run()
    assert seen == [10]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    seen = []
    event = engine.schedule(10, seen.append, "no")
    engine.schedule(5, seen.append, "yes")
    event.cancel()
    engine.run()
    assert seen == ["yes"]


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, "early")
    engine.schedule(1000, seen.append, "late")
    final = engine.run(until=500)
    assert seen == ["early"]
    assert final == 500
    engine.run()
    assert seen == ["early", "late"]


def test_run_until_with_empty_queue_advances_clock():
    engine = Engine()
    assert engine.run(until=250) == 250
    assert engine.now == 250


def test_max_events_guards_against_livelock():
    engine = Engine()

    def respawn():
        engine.schedule(0, respawn)

    engine.schedule(0, respawn)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=100)


def test_pending_counts_live_events_only():
    engine = Engine()
    e1 = engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    assert engine.pending() == 2
    e1.cancel()
    assert engine.pending() == 1


def test_step_returns_false_when_drained():
    engine = Engine()
    engine.schedule(1, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_events_executed_counter():
    engine = Engine()
    for i in range(5):
        engine.schedule(i, lambda: None)
    engine.run()
    assert engine.events_executed == 5


def test_run_is_not_reentrant():
    engine = Engine()
    failure = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            failure.append(exc)

    engine.schedule(1, reenter)
    engine.run()
    assert len(failure) == 1


# -- hot-path machinery: immediate queue, pooling, clock queue -------------


def test_call_soon_interleaves_fifo_with_zero_delay_schedule():
    """call_soon and schedule(0, ...) share one (time, seq) order."""
    engine = Engine()
    seen = []

    def kickoff():
        engine.schedule(0, seen.append, "a")
        engine.call_soon(seen.append, "b")
        engine.schedule(0, seen.append, "c")
        engine.call_soon(seen.append, "d")

    engine.schedule(3, kickoff)
    engine.run()
    assert seen == ["a", "b", "c", "d"]


def test_schedule_discard_merges_with_schedule_by_time_and_seq():
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, "h1")
    engine.schedule_discard(10, seen.append, "d1")
    engine.schedule(10, seen.append, "h2")
    engine.schedule_discard(5, seen.append, "d0")
    engine.run()
    assert seen == ["d0", "h1", "d1", "h2"]


def test_schedule_discard_rejects_negative_delay():
    with pytest.raises(SimulationError):
        Engine().schedule_discard(-1, lambda: None)


def test_pooled_events_are_recycled():
    engine = Engine()
    engine.schedule_discard(1, lambda: None)
    engine.run()
    assert len(engine._pool) == 1
    recycled = engine._pool[0]
    engine.schedule_discard(1, lambda: None)
    assert not engine._pool
    engine.run()
    assert engine._pool[0] is recycled


def test_public_schedule_handles_are_never_pooled():
    """schedule() returns a cancellable handle; recycling it would let a
    stale cancel() kill an unrelated future event."""
    engine = Engine()
    event = engine.schedule(1, lambda: None)
    engine.run()
    assert not engine._pool
    event.cancel()  # after execution: must be a no-op
    engine.schedule(1, lambda: None)
    assert engine.pending() == 1


def test_cancel_after_execution_does_not_corrupt_pending():
    engine = Engine()
    event = engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    engine.step()
    event.cancel()
    assert engine.pending() == 1
    assert engine.step() is True
    assert engine.pending() == 0


def test_compaction_keeps_live_events_and_order():
    engine = Engine()
    seen = []
    handles = [engine.schedule(i + 1, seen.append, i) for i in range(200)]
    for i, handle in enumerate(handles):
        if i % 2:
            handle.cancel()
    # Enough cancels to trigger compaction (cancelled > live, >= minimum).
    assert engine.pending() == 100
    engine.run()
    assert seen == [i for i in range(200) if i % 2 == 0]


def test_clock_queue_merges_in_time_seq_order():
    engine = Engine()
    seen = []
    cpu = object()
    engine.schedule(10, seen.append, "payload10")
    engine.schedule_clock(5, cpu, seen.append, "clock5")
    engine.schedule_clock(10, cpu, seen.append, "clock10-after")
    engine.schedule(10, seen.append, "payload10b")
    assert engine.pending() == 4
    engine.run()
    assert seen == ["clock5", "payload10", "clock10-after", "payload10b"]
    assert engine.now == 10


def test_next_payload_time_sees_past_other_cpus_clock_wakes():
    engine = Engine()
    cpu_a, cpu_b = object(), object()
    engine.schedule_clock(5, cpu_b, lambda: None)
    engine.schedule(40, lambda: None)
    # From cpu_a's view, cpu_b's self-clock tick at t=5 is invisible …
    assert engine.next_payload_time(cpu_a) == 40
    # … but its own clock entries and real events are not.
    assert engine.next_payload_time(cpu_b) == 5
    # The entry is hidden from the bound, not from execution.
    engine.step()
    assert engine.now == 5


def test_exposed_clock_entry_bounds_every_cpu_until_it_fires():
    engine = Engine()
    cpu_a, cpu_b = object(), object()
    engine.schedule_clock(5, cpu_b, lambda: None)
    engine.schedule(40, lambda: None)
    assert engine.next_payload_time(cpu_a) == 40   # hidden: skipped past
    engine.expose_clock(cpu_b)                     # cpu_b stopped being inert
    assert engine.next_payload_time(cpu_a) == 5    # ... so it is the bound
    assert engine.next_payload_time(cpu_a) == 5    # ... on every later call
    # Entries filed after the exposure start hidden again.
    engine.schedule_clock(9, cpu_b, lambda: None)
    engine.step()                                  # fires cpu_b@5
    assert engine.now == 5
    assert engine.next_payload_time(cpu_a) == 40
    assert engine.next_payload_time(cpu_b) == 9


def test_expose_clock_covers_all_pending_entries_and_nothing_else():
    engine = Engine()
    cpu_a, cpu_b, cpu_c = object(), object(), object()
    engine.expose_clock(cpu_b)                     # nothing pending: no-op
    engine.schedule_clock(5, cpu_b, lambda: None)
    engine.schedule_clock(12, cpu_b, lambda: None)
    engine.schedule_clock(3, cpu_c, lambda: None)
    engine.schedule(40, lambda: None)
    assert engine.next_payload_time(cpu_a) == 40
    engine.expose_clock(cpu_b)
    assert engine.next_payload_time(cpu_a) == 5    # cpu_c@3 stays hidden
    engine.step()                                  # cpu_c@3
    engine.step()                                  # cpu_b@5
    assert engine.next_payload_time(cpu_a) == 12   # second exposed entry
    engine.step()                                  # cpu_b@12
    assert engine.next_payload_time(cpu_a) == 40


def test_next_payload_time_skims_cancelled_heads():
    engine = Engine()
    cpu = object()
    event = engine.schedule(5, lambda: None)
    engine.schedule(30, lambda: None)
    event.cancel()
    assert engine.next_payload_time(cpu) == 30


# ---------------------------------------------------------------------------
# step_batch (the PR-8 batched dispatch sweep)
# ---------------------------------------------------------------------------

def _mixed_workload(engine, trace):
    """A scheduling mix that exercises every queue and nesting path."""
    cpu = object()

    def cascade(label, depth):
        trace.append((engine.now, label))
        if depth:
            # Same-timestamp zero-delay fan-out (the wire-delivery shape).
            engine.call_soon(cascade, f"{label}.s{depth}", depth - 1)
            engine.schedule_clock(0, cpu, trace.append,
                                  (engine.now, f"{label}.c{depth}"))

    engine.schedule(5, cascade, "a", 2)
    engine.schedule(5, trace.append, (5, "a2"))
    engine.schedule_clock(5, cpu, trace.append, (5, "aclock"))
    engine.schedule(12, cascade, "b", 3)
    doomed = engine.schedule(8, trace.append, (8, "never"))
    doomed.cancel()
    engine.call_soon(cascade, "zero", 1)
    return cpu


def test_step_batch_is_bit_identical_to_step():
    stepped, batched = [], []
    e1 = Engine()
    _mixed_workload(e1, stepped)
    while e1.step():
        pass
    e2 = Engine()
    _mixed_workload(e2, batched)
    total = 0
    while True:
        n = e2.step_batch(3)  # tiny limit: force many partial sweeps
        if not n:
            break
        total += n
    assert batched == stepped
    assert e2.events_executed == e1.events_executed == total
    assert e2.now == e1.now


def test_step_batch_respects_limit():
    engine = Engine()
    for i in range(10):
        engine.call_soon(lambda: None)
    assert engine.step_batch(4) == 4
    assert engine.events_executed == 4
    assert engine.step_batch(100) == 6


def test_step_batch_stop_flag_halts_between_events():
    engine = Engine()
    stop = [False]
    ran = []

    def flip():
        ran.append("flip")
        stop[0] = True

    engine.call_soon(flip)
    engine.call_soon(ran.append, "after")
    assert engine.step_batch(100, stop) == 1
    assert ran == ["flip"]
    stop[0] = False
    assert engine.step_batch(100, stop) == 1
    assert ran == ["flip", "after"]


def test_step_batch_same_time_clock_push_keeps_order():
    # A schedule_clock(0) from inside the sweep must fire in seq order
    # relative to zero-delay events queued after it.
    engine = Engine()
    cpu = object()
    trace = []

    def first():
        trace.append("first")
        engine.schedule_clock(0, cpu, trace.append, "clock0")
        engine.call_soon(trace.append, "soon-after-clock")

    engine.call_soon(first)
    engine.step_batch(10)
    assert trace == ["first", "clock0", "soon-after-clock"]


def test_per_cpu_clock_index_tracks_pops():
    engine = Engine()
    cpu_a, cpu_b = object(), object()
    engine.schedule_clock(5, cpu_a, lambda: None)
    engine.schedule_clock(7, cpu_a, lambda: None)
    engine.schedule_clock(6, cpu_b, lambda: None)
    engine.schedule(100, lambda: None)
    assert engine.next_payload_time(cpu_a) == 5
    assert engine.next_payload_time(cpu_b) == 6
    engine.step()  # fires cpu_a@5
    assert engine.next_payload_time(cpu_a) == 7
    engine.step()  # fires cpu_b@6
    assert engine.next_payload_time(cpu_b) == 100
    engine.step()  # fires cpu_a@7
    assert engine.next_payload_time(cpu_a) == 100
    engine.run()
    assert engine.now == 100


def test_run_uses_batches_and_matches_run_until():
    e1 = Engine()
    order1 = []
    _mixed_workload(e1, order1)
    e1.run()
    e2 = Engine()
    order2 = []
    _mixed_workload(e2, order2)
    while e2.step_batch(4096):
        pass
    assert order1 == order2
    assert e1.now == e2.now
