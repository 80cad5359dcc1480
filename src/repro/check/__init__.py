"""repro.check — online MPI semantics checking + schedule fuzzing.

Three pieces (see DESIGN.md "Correctness checking"):

- :mod:`repro.check.checker` — the opt-in online invariant checker
  (``EngineConfig(checker=True)`` / ``install_checker``);
- :mod:`repro.check.waitgraph` — rank-level wait-for-graph diagnosis for
  hung jobs (powers :class:`~repro.errors.DeadlockError`'s cycle report);
- :mod:`repro.check.fuzz` — the deterministic schedule-fuzzing harness
  (``python -m repro fuzz``) over the unified workload registry
  (:mod:`repro.workloads`).

Import discipline: this package's ``__init__`` holds only the disabled
checker, :data:`NULL_CHECKER`, which every engine starts with — so
:mod:`repro.sim.engine` imports it here and a run with the checker off
never compiles :mod:`.checker`.  ``install_checker`` imports
:class:`~repro.check.checker.Checker` when a checker is switched on; the
waitgraph and fuzz modules import the simulator/cluster layers and are
pulled in lazily by their consumers.
"""

from typing import Any

from repro.errors import CheckViolation


class NullChecker:
    """Disabled checker: every hook site sees ``enabled`` False and skips.

    The no-op methods exist so direct calls (tests, defensive code) stay
    harmless even without the ``enabled`` guard.
    """

    enabled = False
    violations: tuple = ()

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._noop

    @staticmethod
    def _noop(*_args: Any, **_kwargs: Any) -> None:
        return None


#: The one disabled checker every engine holds until one is installed.
NULL_CHECKER = NullChecker()

__all__ = ["NULL_CHECKER", "CheckViolation", "NullChecker"]
