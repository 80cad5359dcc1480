"""Map source files to layers and split a cProfile run across them.

Layers are the repository's modules, keyed by source path.  The split
treats every call that crosses from one layer's code into another's as
a span boundary: a layer's *self time* is the time spent in its own
functions with callees in other layers excluded, which for cProfile is
simply the sum of the ``inlinetime`` of its functions.  C functions
(``heappush``, ``list.append``, numpy kernels) are leaf work done on
the caller's behalf, so their time is charged to the layer that called
them; ``host.other`` is Python-level code outside ``src/repro`` — the
stdlib, numpy's Python side, and this benchmark's own rank programs.

cProfile adds a fixed cost to every call and none to work inside C, so
the shares lean towards call-heavy layers; ``bench.trace_overhead_ratio``
says by how much the traced run was slowed overall.
"""

from __future__ import annotations

from collections import Counter, defaultdict

HOST = "host.other"

#: First matching prefix wins; paths are relative to ``src/repro/``.
#: Every file there must match a rule (test_ledger checks): a new
#: module cannot fall into ``host.other`` without an entry here.
RULES: tuple[tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/cpu.py", "sim.cpu"),
    ("sim/sync.py", "sim.sync"),
    ("sim/", "sim.other"),            # coroutines, ring, metrics, trace
    ("marcel/", "marcel"),
    ("madeleine/", "madeleine"),
    ("networks/", "networks"),
    ("faults/", "faults"),
    ("mpi/coll/", "mpi.coll"),
    ("mpi/adi/", "mpi.adi"),
    ("mpi/devices/ch_mad/", "ch_mad"),
    ("mpi/devices/", "devices.other"),  # ch_self, smp_plug, ch_p4
    ("mpi/", "mpi.api"),
    ("cluster/", "cluster"),
    ("workloads/", "workloads"),
    ("runner/", "runner"),
    ("cli.py", "runner"),             # the runner's command-line front end
    ("__main__.py", "runner"),
    ("bench/", "bench"),
    ("baselines/", "bench"),          # the figures' analytic comparators
    ("check/", "check"),
    # Shared leaves, not a layer of the stack: exception classes, unit
    # helpers and the package marker.
    ("errors.py", HOST),
    ("units.py", HOST),
    ("__init__.py", HOST),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in RULES))


def layer_of_module(relative_path: str) -> str | None:
    """Layer of a file given relative to ``src/repro/`` (None: no rule)."""
    for prefix, layer in RULES:
        if relative_path.startswith(prefix):
            return layer
    return None


class LayerMap:
    """Resolves code objects to layers, caching per file name."""

    def __init__(self, repro_root: str):
        self._root = repro_root.rstrip("/") + "/"
        self._cache: dict[str, str] = {}

    def of_code(self, code) -> str | None:
        """Layer of a profiled code object; None for a C function
        (cProfile labels those with a string, not a code object)."""
        if isinstance(code, str):
            return None
        filename = code.co_filename
        layer = self._cache.get(filename)
        if layer is None:
            layer = HOST
            if filename.startswith(self._root):
                layer = layer_of_module(filename[len(self._root):]) or HOST
            self._cache[filename] = layer
        return layer


def split_profile(entries, layer_map: LayerMap) -> dict:
    """Per-layer self time, call counts and cross-layer edges from
    ``cProfile.Profile.getstats()``.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "edges": {"a->b": {"calls": n, "inclusive_s": s}}, "total_s": s}``.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    edges: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0])
    #: C function -> {calling layer: calls}; a C function that calls
    #: back into Python (generator.send, heappush -> __lt__) passes its
    #: callers' layers through in proportion.
    c_callers: dict[str, Counter] = defaultdict(Counter)
    total = 0.0

    for entry in entries:
        total += entry.inlinetime
        layer = layer_map.of_code(entry.code)
        if layer is None:
            continue
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            callee = layer_map.of_code(sub.code)
            if callee is None:
                self_s[layer] += sub.inlinetime
                c_callers[sub.code][layer] += sub.callcount
            elif callee != layer:
                edge = edges[layer, callee]
                edge[0] += sub.callcount
                edge[1] += sub.totaltime

    attributed = sum(self_s.values())
    for entry in entries:
        if not isinstance(entry.code, str) or not entry.calls:
            continue
        callers = c_callers.get(entry.code) or Counter({HOST: 1})
        n = sum(callers.values())
        for sub in entry.calls:
            callee = layer_map.of_code(sub.code)
            if callee is None:
                continue
            for source, count in callers.items():
                if source != callee:
                    edge = edges[source, callee]
                    edge[0] += sub.callcount * count / n
                    edge[1] += sub.totaltime * count / n
    # C functions nobody in the profile called (the profiler's own
    # disable()) have no caller to charge.
    self_s[HOST] += total - attributed

    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "edges": {f"{a}->{b}": {"calls": round(c), "inclusive_s": s}
                  for (a, b), (c, s) in sorted(edges.items())},
        "total_s": total,
    }
