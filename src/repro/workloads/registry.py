"""The unified workload registry and the :class:`Workload` protocol.

The fuzzer, the batch runner's job kinds and the ``benchmarks/perf/``
drivers all need "a program plus the cluster it runs on"; registering
it once here is what keeps them from drifting apart.

:class:`Workload` is the one description all front ends share:

``name`` / ``description``
    Registry key and one-line human summary.
``params``
    A declarative schema (:class:`Param` per knob, with defaults) —
    the CLI, the sweep runner and the benchmarks resolve overrides
    against it, so a typo'd parameter fails before any rank starts.
``build(seed, **params) -> (config, program)``
    The factory: a :class:`~repro.cluster.node.ClusterConfig` plus a
    rank generator ``program(mpi)``.  ``seed`` feeds the workload's own
    traffic schedule (build-time RNG via
    :func:`~repro.sim.engine.seed_namespace`); everything else comes
    from the resolved params.  Programs must be *schedule-independent*:
    whatever legal interleaving the fuzzer provokes, every rank returns
    the same user-visible result.
``digest``
    Canonicalizer from per-rank results to a hex digest (defaults to
    ``sha256(repr(results))`` — fine as long as the program already
    returns canonical values, which the schedule-independence contract
    requires anyway).
``metrics``
    Counter names of interest (summed across label sets) reported by
    :func:`run` when instrumentation is on.
``tags``
    Capability markers: ``"fuzz"`` workloads appear in the fuzz sweep,
    ``"macro"`` marks the application-shaped drivers benched by
    ``benchmarks/perf/macroperf.py``.

Register once with :func:`register`; the workload is then runnable via
``python -m repro run --workload NAME``, sweepable/cacheable through the
``workload`` job kind (:mod:`repro.workloads.executors`), fuzzable via
``python -m repro fuzz --workload NAME``, and benchable against a
committed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Param:
    """One declared workload parameter: a default plus documentation."""

    default: Any
    doc: str = ""


def default_digest(results: Any) -> str:
    """``sha256(repr(results))`` — canonical iff the results are."""
    return sha256(repr(results).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One registered workload (see the module docstring for the
    contract).  Field order keeps the historical positional shape
    ``Workload(name, description, build)`` working — the pre-unification
    fuzz workloads were exactly that triple."""

    name: str
    description: str
    #: ``build(seed, **params) -> (ClusterConfig, program)``.
    build: Callable[..., tuple]
    params: Mapping[str, Param] = field(default_factory=dict)
    metrics: tuple[str, ...] = ()
    tags: frozenset[str] = frozenset({"fuzz"})
    digest: Callable[[Any], str] | None = None

    def resolve(self, overrides: Mapping[str, Any] | None = None
                ) -> dict[str, Any]:
        """Defaults merged with ``overrides``; unknown keys raise."""
        resolved = {key: param.default for key, param in self.params.items()}
        for key, value in (overrides or {}).items():
            if key not in resolved:
                raise ConfigurationError(
                    f"workload {self.name!r} has no parameter {key!r}; "
                    f"known: {sorted(self.params) or '(none)'}")
            resolved[key] = value
        return resolved

    def instantiate(self, seed: int = 0,
                    params: Mapping[str, Any] | None = None) -> tuple:
        """Resolve ``params`` and build ``(config, program)``."""
        return self.build(seed, **self.resolve(params))

    def result_digest(self, results: Any) -> str:
        return (self.digest or default_digest)(results)


#: The one registry every front end resolves against.  Plain dict on
#: purpose: tests plant throwaway workloads with ``WORKLOADS[name] = …``.
WORKLOADS: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add ``workload`` to the registry (duplicate names raise)."""
    if workload.name in WORKLOADS:
        raise ConfigurationError(
            f"workload {workload.name!r} is already registered")
    WORKLOADS[workload.name] = workload
    return workload


def get(name: str) -> Workload:
    """Resolve a workload by name (unknown names raise with the list)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def names(tag: str | None = None) -> list[str]:
    """Sorted registry names, optionally filtered to one tag."""
    return sorted(name for name, wl in WORKLOADS.items()
                  if tag is None or tag in wl.tags)


@dataclass
class WorkloadResult:
    """Outcome of one :func:`run`: results, digest, virtual time,
    metrics of interest, and any (non-raised) checker violations."""

    workload: str
    seed: int
    params: dict[str, Any]
    results: Any
    digest: str
    time_ns: int
    metrics: dict[str, int | float] = field(default_factory=dict)
    violations: tuple = ()


def run(name: str, *, seed: int = 0,
        params: Mapping[str, Any] | None = None, check: bool = False,
        checker_raise: bool = True, fuzz_seed: int | None = None,
        instrumentation: bool = False) -> WorkloadResult:
    """Run one registered workload end to end and digest its results.

    The simulator is deterministic, so the returned
    :class:`WorkloadResult` is a pure function of
    ``(name, seed, params)`` — which is what lets the ``workload`` job
    kind cache these runs content-addressed.
    """
    from repro.cluster.session import MPIWorld
    from repro.sim.engine import EngineConfig

    workload = get(name)
    resolved = workload.resolve(params)
    config, program = workload.build(seed, **resolved)
    wants_metrics = instrumentation and bool(workload.metrics)
    world = MPIWorld(config, engine_config=EngineConfig(
        instrumentation=wants_metrics, checker=check,
        checker_raise=checker_raise, fuzz_seed=fuzz_seed))
    results = world.run(program)
    metrics = {}
    if wants_metrics:
        registry = world.engine.instruments.metrics
        metrics = {metric: registry.total(metric)
                   for metric in workload.metrics}
    violations = tuple(world.engine.checker.violations) if check else ()
    return WorkloadResult(
        workload=name, seed=seed, params=resolved, results=results,
        digest=workload.result_digest(results), time_ns=world.engine.now,
        metrics=metrics, violations=violations)
