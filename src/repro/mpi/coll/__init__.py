"""Pluggable collective-algorithm selection (the registry package).

Importing this package registers every built-in algorithm family:

- :mod:`repro.mpi.coll.flat` — every flat algorithm: the per-operation
  defaults, reduce_scatter/scan/exscan, and the classic MPICH zoo
  (linear/binomial bcast, recursive doubling, Bruck);
- :mod:`repro.mpi.coll.hierarchical` — node-aware two-level algorithms
  over ``Communicator.split_type()`` subcommunicators;
- :mod:`repro.mpi.coll.multilane` — payload decomposition across rails
  with concurrent per-lane sub-collectives.

See :mod:`repro.mpi.coll.registry` for the selection precedence
(per call > ``EngineConfig.coll_algorithm`` > default).
"""

from repro.mpi.coll.registry import (
    OPERATIONS,
    REGISTRY,
    CollectiveAlgorithm,
    get,
    names,
    operations_with,
    parse_selection,
    register,
    resolve,
)
from repro.mpi.coll import flat, hierarchical, multilane  # noqa: F401  (registration side effects)

__all__ = [
    "OPERATIONS",
    "REGISTRY",
    "CollectiveAlgorithm",
    "get",
    "names",
    "operations_with",
    "parse_selection",
    "register",
    "resolve",
    "flat",
    "hierarchical",
    "multilane",
]
