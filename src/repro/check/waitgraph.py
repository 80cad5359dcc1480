"""Rank-level wait-for-graph diagnosis for hung MPI jobs.

The queue-drained heuristic in :mod:`repro.cluster.session` knows *that*
the job hung; this module says *why*, rank by rank.  Blocking primitives
annotate their waitables with two ad-hoc attributes:

- ``rank_dep`` — the world rank whose action would release the waiter
  (``None`` when unknown, e.g. an ``MPI_ANY_SOURCE`` receive);
- ``dep_describe`` — a human-readable description of the dependency, or
  a zero-argument callable returning it.

The annotations are always on so a hang is diagnosable even when the
checker was never enabled.  Producers on the per-message path (a
receive's :class:`~repro.mpi.adi.rhandle.RecvHandle`, the rendezvous
ack wait) store the callable: the text is formatted only here, when a
diagnosis reads it.  :func:`diagnose` collects one edge per
blocked non-daemon task (daemons with no rank dependency are polling
threads parked on empty mailboxes — noise, skipped), builds the
rank-level adjacency, and searches for a cycle; the resulting
:class:`Diagnosis` feeds :class:`~repro.errors.DeadlockError`'s
``cycle``/``diagnosis`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.cpu import TaskState


@dataclass(frozen=True)
class WaitEdge:
    """One blocked task: ``rank`` waits on ``dep_rank`` (None = unknown)."""

    rank: int
    task_name: str
    description: str
    dep_rank: int | None


@dataclass
class Diagnosis:
    """The wait-for-graph report attached to a DeadlockError."""

    edges: list[WaitEdge] = field(default_factory=list)
    #: Ranks forming a cycle, in wait order (empty when none found).
    cycle_ranks: list[int] = field(default_factory=list)
    #: Human-readable report, one line per edge plus the cycle summary.
    text: str = ""


def collect_edges(envs: Iterable[Any]) -> list[WaitEdge]:
    """One edge per blocked task whose dependency is worth reporting."""
    edges: list[WaitEdge] = []
    for env in envs:
        for task in env.process.runtime.cpu.tasks():
            if task.finished or task.state is not TaskState.BLOCKED:
                continue
            waitable = task.waiting_on
            dep = getattr(waitable, "rank_dep", None)
            if task.daemon and dep is None:
                continue  # a poller parked on its empty mailbox
            description = getattr(waitable, "dep_describe", None)
            if callable(description):
                description = description()
            edges.append(WaitEdge(env.rank, task.name,
                                  description or task.waiting_description(),
                                  dep))
    return edges


def find_cycle(edges: Iterable[WaitEdge]) -> list[int]:
    """A rank cycle in the wait-for graph, or [] when none exists.

    DFS over the rank-level adjacency; deterministic (neighbours visited
    in sorted order) so the reported cycle is stable across runs.
    """
    adjacency: dict[int, list[int]] = {}
    for edge in edges:
        if edge.dep_rank is not None and edge.dep_rank != edge.rank:
            deps = adjacency.setdefault(edge.rank, [])
            if edge.dep_rank not in deps:
                deps.append(edge.dep_rank)
    for deps in adjacency.values():
        deps.sort()

    done: set[int] = set()
    for start in sorted(adjacency):
        if start in done:
            continue
        path: list[int] = []
        on_path: set[int] = set()

        def visit(rank: int) -> list[int]:
            if rank in on_path:
                return path[path.index(rank):]
            if rank in done:
                return []
            path.append(rank)
            on_path.add(rank)
            for dep in adjacency.get(rank, ()):
                cycle = visit(dep)
                if cycle:
                    return cycle
            path.pop()
            on_path.discard(rank)
            done.add(rank)
            return []

        cycle = visit(start)
        if cycle:
            return cycle
    return []


def diagnose(envs: Iterable[Any]) -> Diagnosis:
    """Build the full wait-for-graph report for a hung world."""
    edges = collect_edges(envs)
    cycle = find_cycle(edges)
    lines = []
    for edge in sorted(edges, key=lambda e: (e.rank, e.task_name)):
        target = (f"rank {edge.dep_rank}" if edge.dep_rank is not None
                  else "<unknown>")
        lines.append(f"  rank {edge.rank} waits on {target}: "
                     f"{edge.description} [{edge.task_name}]")
    if cycle:
        chain = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
        lines.insert(0, f"wait-for cycle: {chain}")
    elif lines:
        lines.insert(0, "wait-for graph (no cycle found):")
    return Diagnosis(edges=edges, cycle_ranks=cycle,
                     text="\n".join(lines))
