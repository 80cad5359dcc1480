"""Typed metrics and the :class:`Instrumentation` facade.

This module unifies the two observability channels of the simulator:

- the event stream — :class:`~repro.sim.trace.Tracer` records, good for
  post-mortem queries and timeline export;
- typed aggregates — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments held in a :class:`MetricsRegistry`,
  good for "how many MAD_SHORT_PKTs went over SCI" questions without
  replaying the record stream.

An :class:`Instrumentation` object owns one of each and is installed on
the engine by ``EngineConfig(instrumentation=True)`` or
:func:`install_instrumentation`.  When off, the
engine carries :data:`NULL_INSTRUMENTS` instead; hot paths guard their
recording with a single ``if ins.enabled`` attribute check, so disabled
runs pay nothing beyond that check (the benchmarks' zero-cost contract).

Exports:

- :meth:`Instrumentation.chrome_trace` / ``export_chrome_trace`` turn
  the trace-record stream into Chrome ``trace_event`` JSON viewable in
  ``chrome://tracing`` or Perfetto (``ui.perfetto.dev``);
- :meth:`Instrumentation.report` renders a plain-text metrics summary
  (formatted by :func:`repro.bench.report.format_metrics`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.sim.trace import TraceRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.engine import Engine

#: Canonical representation of a metric's label set: sorted key/value pairs.
LabelSet = tuple[tuple[str, Any], ...]


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    return tuple(sorted(labels.items()))


def format_labels(labels: LabelSet) -> str:
    """``{k=v,...}`` rendering used by reports ('' for no labels)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


@dataclass
class Counter:
    """A monotonically increasing count (messages, bytes, wakeups)."""

    name: str
    labels: LabelSet = ()
    value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A sampled level (queue depth); remembers its high-water mark."""

    name: str
    labels: LabelSet = ()
    value: int | float = 0
    high_water: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value


@dataclass
class Histogram:
    """A distribution of observations (message sizes, span durations)."""

    name: str
    labels: LabelSet = ()
    values: list[int | float] = field(default_factory=list)

    def observe(self, value: int | float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int | float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def min(self) -> int | float:
        return min(self.values) if self.values else 0

    @property
    def max(self) -> int | float:
        return max(self.values) if self.values else 0

    def percentile(self, p: float) -> int | float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self.values:
            return 0
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1,
                          round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]


class MetricsRegistry:
    """All instruments of one simulation, keyed by (name, labels).

    Instruments are created on first touch; a name is permanently bound
    to one instrument kind (mixing kinds under one name raises).
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], Any] = {}
        self._kind_of: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: Mapping[str, Any]):
        bound = self._kind_of.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} is a {bound}, not a {kind}"
            )
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = self._KINDS[kind](name, key[1])
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    # -- queries -----------------------------------------------------------

    def value(self, name: str, **labels: Any) -> int | float:
        """Current value of one counter/gauge (0 if never touched)."""
        metric = self._metrics.get((name, _labelset(labels)))
        return 0 if metric is None else metric.value

    def total(self, name: str) -> int | float:
        """Sum of a counter across all of its label sets."""
        return sum(m.value for (n, _), m in self._metrics.items()
                   if n == name and isinstance(m, Counter))

    def collect(self, kind: type | None = None) -> list[Any]:
        """All instruments (optionally of one class), sorted for display."""
        out = [m for m in self._metrics.values()
               if kind is None or isinstance(m, kind)]
        out.sort(key=lambda m: (m.name, m.labels))
        return out

    def __len__(self) -> int:
        return len(self._metrics)


class Instrumentation:
    """Facade over tracing + metrics, installed as ``engine.instruments``.

    Recording methods are cheap but not free; hot paths keep the
    zero-cost contract by checking :attr:`enabled` *before* building
    label kwargs::

        ins = engine.instruments
        if ins.enabled:
            ins.count("chmad.packets", 1, pkt=..., protocol=...)
    """

    enabled = True

    def __init__(self, engine: "Engine", tracer: Tracer | None = None):
        self.engine = engine
        self.tracer = tracer or Tracer(engine, enabled=True)
        self.metrics = MetricsRegistry()

    # -- recording ---------------------------------------------------------

    def emit(self, category: str, **fields: Any) -> None:
        """Append one trace record (see :meth:`Tracer.emit`)."""
        self.tracer.emit(category, **fields)

    def count(self, name: str, amount: int | float = 1,
              **labels: Any) -> None:
        """Increment the counter ``name`` for this label set."""
        self.metrics.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: int | float,
                  **labels: Any) -> None:
        """Sample gauge ``name``; also traced (category ``gauge``) so the
        Chrome export can draw it as a counter track."""
        self.metrics.gauge(name, **labels).set(value)
        self.tracer.emit("gauge", name=name, value=value, **labels)

    def observe(self, name: str, value: int | float, **labels: Any) -> None:
        """Add one observation to histogram ``name``."""
        self.metrics.histogram(name, **labels).observe(value)

    # -- reporting ---------------------------------------------------------

    def report(self, title: str = "Instrumentation report") -> str:
        """Plain-text summary of every instrument."""
        from repro.bench.report import format_metrics
        return format_metrics(self.metrics, title=title)

    # -- Chrome trace_event export ----------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """The trace-record stream as a Chrome ``trace_event`` object.

        Load the written file in ``chrome://tracing`` or Perfetto.
        Mapping: virtual-time ns -> microsecond ``ts``; the emitting
        rank (``rank``/``src`` field) -> ``pid``; the category's first
        component (or ``protocol``/``fabric``) -> ``tid``.  Records with
        a ``latency`` field become complete ("X") spans covering the
        transfer; ``gauge`` records become counter ("C") samples;
        everything else is an instant ("i") event.
        """
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [chrome_event(r) for r in self.tracer.records],
        }

    def export_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` as JSON; returns ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
        return path


def chrome_event(record: TraceRecord) -> dict[str, Any]:
    """Convert one :class:`TraceRecord` into a Chrome trace event."""
    fields = record.fields
    pid = fields.get("rank", fields.get("src", fields.get("source", 0)))
    tid = fields.get("thread",
                     fields.get("protocol",
                                fields.get("fabric",
                                           record.category.split(".")[0])))
    ts = record.time / 1000.0  # integer ns -> us (Chrome's unit)
    if record.category == "gauge":
        name = str(fields.get("name", "gauge"))
        return {"name": name, "cat": "gauge", "ph": "C", "ts": ts,
                "pid": pid, "tid": 0,
                "args": {name: fields.get("value", 0)}}
    latency = fields.get("latency")
    if isinstance(latency, (int, float)) and latency > 0:
        # A transfer: draw the whole flight as a complete span.
        return {"name": record.category, "cat": record.category, "ph": "X",
                "ts": (record.time - latency) / 1000.0,
                "dur": latency / 1000.0, "pid": pid, "tid": tid,
                "args": dict(fields)}
    return {"name": fields.get("pkt", record.category),
            "cat": record.category, "ph": "i", "ts": ts, "pid": pid,
            "tid": tid, "s": "t", "args": dict(fields)}


class NullInstrumentation:
    """Instrumentation that ignores everything — the disabled default.

    Shares the null-object pattern with
    :class:`~repro.sim.trace.NullTracer`; every recording method is a
    no-op and every query reports emptiness, so code may read
    ``engine.instruments`` unconditionally.
    """

    enabled = False

    def __init__(self) -> None:
        from repro.sim.trace import NULL_TRACER
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()  # stays empty: no-ops never write

    def emit(self, category: str, **fields: Any) -> None:
        pass

    def count(self, name: str, amount: int | float = 1,
              **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: int | float,
                  **labels: Any) -> None:
        pass

    def observe(self, name: str, value: int | float, **labels: Any) -> None:
        pass

    def report(self, title: str = "Instrumentation report") -> str:
        return f"{title}\n(instrumentation disabled)"

    def chrome_trace(self) -> dict[str, Any]:
        return {"displayTimeUnit": "ms", "traceEvents": []}

    def export_chrome_trace(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return path


NULL_INSTRUMENTS = NullInstrumentation()
