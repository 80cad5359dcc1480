"""The collective-algorithm registry (selection by ``(operation, name)``).

Every collective algorithm the simulator knows — the flat defaults and
the classic MPICH zoo (:mod:`repro.mpi.coll.flat`), the node-aware
hierarchical family and the multi-lane decompositions — registers here
under its operation ("bcast", "allreduce", ...) and a short name.  The
same implementation is then reachable two ways, in precedence order:

1. per call:  ``yield from comm.allreduce(x, algorithm="hier")``
2. run-wide:  ``EngineConfig(coll_algorithm="allreduce=hier")``

With no selection, :func:`resolve` runs the ``"default"`` entry, the flat
function of the operation's own name.

A selection string is either one bare name (applied to every operation
that registers it) or a comma list of ``operation=name`` pairs::

    hier
    allreduce=multilane,bcast=binomial

Unknown operations or names raise
:class:`~repro.errors.ConfigurationError` at parse time —
``EngineConfig`` validation happens in ``Engine.apply_config``, before
any rank runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator

#: Operations the registry covers (the selectable subset of the
#: collective API; scan/exscan/reduce_scatter/alltoallv have a single
#: implementation each and are called directly).
OPERATIONS = ("barrier", "bcast", "reduce", "allreduce",
              "gather", "scatter", "allgather", "alltoall")


@dataclass(frozen=True)
class CollectiveAlgorithm:
    """One registered implementation of one collective operation."""

    operation: str
    name: str
    fn: Callable[..., Generator]
    description: str = ""


#: ``(operation, name) -> CollectiveAlgorithm``.
REGISTRY: dict[tuple[str, str], CollectiveAlgorithm] = {}


def register(operation: str, name: str, fn: Callable[..., Generator],
             description: str = "") -> CollectiveAlgorithm:
    """Register ``fn`` as ``operation``'s ``name`` algorithm."""
    if operation not in OPERATIONS:
        raise ConfigurationError(
            f"unknown collective operation {operation!r}; "
            f"known: {OPERATIONS}")
    key = (operation, name)
    if key in REGISTRY:
        raise ConfigurationError(
            f"collective algorithm {name!r} already registered for "
            f"{operation!r}")
    algorithm = CollectiveAlgorithm(operation, name, fn, description)
    REGISTRY[key] = algorithm
    return algorithm


def get(operation: str, name: str) -> CollectiveAlgorithm:
    """Look up one algorithm; raises ConfigurationError when unknown."""
    try:
        return REGISTRY[(operation, name)]
    except KeyError:
        raise ConfigurationError(
            f"no {operation!r} algorithm named {name!r}; "
            f"known: {names(operation)}") from None


def names(operation: str) -> list[str]:
    """Sorted algorithm names registered for ``operation``."""
    return sorted(n for (op, n) in REGISTRY if op == operation)


def operations_with(name: str) -> list[str]:
    """Operations for which an algorithm called ``name`` exists."""
    return [op for op in OPERATIONS if (op, name) in REGISTRY]


def parse_selection(text: str) -> dict[str, str]:
    """Parse a selection string into ``{operation: name}``.

    A bare name selects that algorithm for every operation registering
    it; ``op=name`` pairs pin individual operations.  Raises
    :class:`~repro.errors.ConfigurationError` on unknown operations or
    names, so a bad ``EngineConfig`` fails before the first rank
    runs rather than mid-collective.
    """
    selection: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            operation, _, name = part.partition("=")
            operation, name = operation.strip(), name.strip()
            get(operation, name)  # validates both halves
            selection[operation] = name
        else:
            covered = operations_with(part)
            if not covered:
                known = sorted({n for (_, n) in REGISTRY})
                raise ConfigurationError(
                    f"no collective algorithm named {part!r}; "
                    f"known names: {known}")
            for operation in covered:
                selection[operation] = part
    return selection


def resolve(comm: "Communicator", operation: str,
            name: str | None = None) -> Callable[..., Generator]:
    """The callable to run for ``operation`` on ``comm``: ``name`` if
    given (per call), else the run-wide ``EngineConfig.coll_algorithm``
    selection, else ``"default"``."""
    if name is None:
        name = comm.env.process.engine.coll_selection.get(operation,
                                                          "default")
    return get(operation, name).fn
