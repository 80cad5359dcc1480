"""Discrete-event simulation kernel.

The kernel is deliberately tiny and deterministic:

- :class:`~repro.sim.engine.Engine` owns the virtual clock (integer
  nanoseconds) and a priority queue of events, tie-broken by insertion
  sequence number so identical timestamps replay identically.
- :class:`~repro.sim.cpu.CPU` schedules cooperative *tasks* (Python
  generator coroutines) on one simulated processor.  Tasks charge CPU
  time explicitly with :func:`~repro.sim.coroutines.charge`; everything
  the higher layers "pay for" (packing, polling, memory copies, protocol
  handling) flows through these charges, which is what makes contention
  effects — such as the paper's Figure 9 polling interference — emerge
  rather than being hard-coded.
- :mod:`~repro.sim.sync` provides one-shot flags, condition variables
  and mailboxes usable from tasks.
"""

from repro.sim.coroutines import (
    Charge,
    ClockCharge,
    ClockSleep,
    GetTime,
    Sleep,
    Wait,
    YieldCPU,
    charge,
    clock_charge,
    clock_sleep,
    now,
    sleep,
    wait,
    yield_cpu,
)
from repro.sim.cpu import CPU, Task, TaskState
from repro.sim.engine import (
    Engine,
    EngineConfig,
    Event,
    install_checker,
    install_instrumentation,
    seed_namespace,
)
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTS,
)
from repro.sim.sync import (
    Condition,
    Flag,
    Mailbox,
    MailboxSelect,
)

__all__ = [
    "CPU",
    "Charge",
    "Condition",
    "Counter",
    "Engine",
    "EngineConfig",
    "Event",
    "Flag",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_INSTRUMENTS",
    "GetTime",
    "Mailbox",
    "ClockCharge",
    "ClockSleep",
    "MailboxSelect",
    "Sleep",
    "Task",
    "TaskState",
    "Wait",
    "YieldCPU",
    "charge",
    "clock_charge",
    "clock_sleep",
    "install_checker",
    "install_instrumentation",
    "now",
    "seed_namespace",
    "sleep",
    "wait",
    "yield_cpu",
]
