"""Schedule fuzzing: perturb legal scheduling choices, keep semantics.

The simulator is deterministic: a run is a pure function of
``(configuration, seed)``.  That is great for reproducibility and
terrible for coverage — every test run exercises exactly one
interleaving of the many the MPI/Madeleine stack must tolerate.
:class:`ScheduleFuzz` widens the net by perturbing *scheduling* degrees
of freedom the specification leaves open, without touching modelled
costs:

- **ready-queue tie-breaking** — when several threads of one process
  are runnable, rotate the ready queue (any dispatch order is legal);
- **temporary-thread spawn jitter** — delay a freshly spawned temporary
  thread (isend bodies, rendezvous acks, forwarding relays) by a few
  nanoseconds before its first statement runs;
- **polling-thread phase offsets** — start each periodic poller at a
  random phase within its period.

All draws come from :meth:`Engine.rng` namespaces under
``fuzz/{seed}/…``, so one fuzz seed reproduces one schedule exactly:

    python -m repro fuzz --workload mixed --seed 17

The sweep harness (:func:`run_sweep`) runs the
:mod:`repro.workloads` programs across many fuzz seeds with the
online checker enabled, and fails a seed when a checker invariant
trips, the run deadlocks, or the user-visible results differ from the
other seeds' — printing the one-line repro command above.  Each
``(workload, seed)`` pair is one :class:`~repro.runner.spec.JobSpec`
(kind ``fuzz_workload``) executed through the batch
:class:`~repro.runner.runner.Runner`, so sweeps parallelize across
worker processes and cache their per-seed results content-addressed.

Workloads resolve through the unified registry
(:mod:`repro.workloads`): anything registered there with the ``fuzz``
tag — micro protocol storms and the ``ml_training``/``cfd_halo``
macro-workloads alike — is sweepable here with no extra wiring.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.sim.engine import EngineConfig, seed_namespace

_READY_RATE = 0.25
_SPAWN_JITTER_NS = 2_000
_POLLER_PHASE_NS = 5_000


class ScheduleFuzz:
    """Seeded scheduling perturbations, installed as ``engine.fuzz``."""

    def __init__(self, engine, seed: int, *, ready_rate: float = _READY_RATE,
                 spawn_jitter_ns: int = _SPAWN_JITTER_NS,
                 poller_phase_ns: int = _POLLER_PHASE_NS):
        self.engine = engine
        self.seed = int(seed)
        self.ready_rate = ready_rate
        self.spawn_jitter_ns = int(spawn_jitter_ns)
        self.poller_phase_ns = int(poller_phase_ns)
        #: Number of perturbations actually applied (diagnostic; two
        #: seeds producing different interleavings usually differ here).
        self.decisions = 0
        base = seed_namespace("fuzz", self.seed)
        self._ready_rng = engine.rng(seed_namespace(base, "ready"))
        self._spawn_rng = engine.rng(seed_namespace(base, "spawn"))

    def perturb_ready(self, ready) -> None:
        """Maybe rotate a multi-entry ready deque (dispatch tie-break)."""
        if self._ready_rng.random() < self.ready_rate:
            ready.rotate(-1)
            self.decisions += 1

    def spawn_jitter(self) -> int:
        """Nanoseconds to delay a temporary thread's first statement."""
        jitter = self._spawn_rng.randrange(self.spawn_jitter_ns + 1)
        if jitter:
            self.decisions += 1
        return jitter

    def poller_phase(self, name: str) -> int:
        """Phase offset for periodic poller ``name`` (drawn per name, so
        poller construction order cannot shift the streams)."""
        rng = self.engine.rng(seed_namespace("fuzz", self.seed, "phase", name))
        offset = rng.randrange(self.poller_phase_ns + 1)
        if offset:
            self.decisions += 1
        return offset


def install_fuzz(engine, seed: int, **params) -> ScheduleFuzz:
    """Attach a :class:`ScheduleFuzz` to ``engine`` (before ``run``)."""
    fuzz = ScheduleFuzz(engine, seed, **params)
    engine.fuzz = fuzz
    return fuzz


def trace_digest(records: Iterable) -> str:
    """Canonical digest of an instrumentation record stream."""
    digest = sha256()
    for rec in records:
        digest.update(repr((rec.time, rec.category,
                            tuple(sorted(rec.fields.items())))).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

@dataclass
class WorkloadRun:
    """Outcome of one (workload, fuzz seed) execution."""

    workload: str
    fuzz_seed: int | None
    workload_seed: int = 0
    results: Any = None
    error: ReproError | None = None
    digest: str = ""
    time_ns: int = 0
    decisions: int = 0
    violations: tuple = ()
    trace_records: Sequence = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def repro(self) -> str:
        cmd = (f"python -m repro fuzz --workload {self.workload} "
               f"--seed {self.fuzz_seed}")
        if self.workload_seed:
            cmd += f" --workload-seed {self.workload_seed}"
        return cmd


def run_workload(name: str, fuzz_seed: int | None, *, workload_seed: int = 0,
                 check: bool = True, raise_on_violation: bool = True,
                 fuzz_params: dict | None = None) -> WorkloadRun:
    """Run one bundled workload under the checker (and optionally the
    fuzzer); never raises — failures land in ``run.error``."""
    import repro.workloads as workloads
    from repro.cluster.session import MPIWorld

    config, program = workloads.get(name).instantiate(workload_seed)
    world = MPIWorld(config, engine_config=EngineConfig(
        instrumentation=True, checker=check,
        checker_raise=raise_on_violation, fuzz_seed=fuzz_seed,
        fuzz_params=fuzz_params or {}))
    ins = world.engine.instruments
    checker = world.engine.checker if check else None
    run = WorkloadRun(name, fuzz_seed, workload_seed)
    try:
        run.results = world.run(program)
    except ReproError as exc:
        run.error = exc
    run.digest = trace_digest(ins.tracer.records)
    run.trace_records = ins.tracer.records
    run.time_ns = world.engine.now
    if world.engine.fuzz is not None:
        run.decisions = world.engine.fuzz.decisions
    if checker is not None:
        run.violations = tuple(checker.violations)
    return run


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    workload: str
    fuzz_seed: int
    kind: str  # "violation" | "results-diverge"
    detail: str
    repro: str
    artifact: str | None = None


def sweep_jobs(workloads: Sequence[str], seeds: Iterable[int], *,
               workload_seed: int = 0) -> list:
    """One ``fuzz_workload`` :class:`JobSpec` per (workload, fuzz seed)."""
    from repro.runner import JobSpec

    return [
        JobSpec(kind="fuzz_workload",
                params={"workload": name, "fuzz_seed": seed,
                        "workload_seed": workload_seed, "check": True},
                label=f"fuzz:{name}:seed{seed}")
        for name in workloads for seed in seeds
    ]


def _write_artifact(directory: str, payload: Mapping[str, Any],
                    failure: FuzzFailure) -> str:
    os.makedirs(directory, exist_ok=True)
    trace = payload.get("trace") or ()
    path = os.path.join(
        directory, f"{failure.workload}-seed{failure.fuzz_seed}.txt")
    with open(path, "w") as fh:
        fh.write(f"workload:  {failure.workload}\n"
                 f"fuzz seed: {failure.fuzz_seed}\n"
                 f"kind:      {failure.kind}\n"
                 f"detail:    {failure.detail}\n"
                 f"REPRO:     {failure.repro}\n\n"
                 f"trace ({len(trace)} records):\n")
        for line in trace:
            fh.write(f"  {line}\n")
        if not trace:
            fh.write("  (run the REPRO command above for the full trace)\n")
    return path


def run_sweep(workloads: Sequence[str], seeds: Iterable[int], *,
              workload_seed: int = 0, artifacts_dir: str | None = None,
              out: Callable[[str], None] = print, workers: int = 1,
              cache=None,
              progress: Callable[[str], None] | None = None
              ) -> list[FuzzFailure]:
    """Run each workload across every fuzz seed; return the failures.

    A seed fails when the run raises (checker violation, deadlock, any
    :class:`~repro.errors.ReproError`) or when its user-visible results
    differ from the first seed's — the results of a correct MPI program
    must not depend on which legal schedule the fuzzer picked.

    The (workload, seed) grid is executed through the batch
    :class:`~repro.runner.runner.Runner`: ``workers > 1`` fans seeds out
    across processes, ``cache`` (a directory or
    :class:`~repro.runner.cache.ResultCache`) makes re-sweeps of
    already-seen seeds instant.  Results and failure reports are
    identical whichever way the grid was executed.
    """
    from repro.runner import Runner

    seeds = list(seeds)
    workloads = list(workloads)
    specs = sweep_jobs(workloads, seeds, workload_seed=workload_seed)
    runner = Runner(workers=workers, cache=cache, out=progress)
    payloads = {}
    for spec, result in zip(specs, runner.run(specs)):
        if not result.ok:  # infrastructure failure, not a checker verdict
            raise ReproError(
                f"fuzz job {spec.display} failed to execute: {result.error}")
        payloads[(spec.params["workload"], spec.params["fuzz_seed"])] = \
            result.payload

    failures: list[FuzzFailure] = []
    for name in workloads:
        baseline: Mapping[str, Any] | None = None
        for seed in seeds:
            payload = payloads[(name, seed)]
            failure = None
            if not payload["ok"]:
                failure = FuzzFailure(
                    name, seed, "violation",
                    f"{payload['error_type']}: {payload['error']}",
                    payload["repro"])
            elif baseline is None:
                baseline = payload
            elif payload["results_repr"] != baseline["results_repr"]:
                failure = FuzzFailure(
                    name, seed, "results-diverge",
                    f"user-visible results changed with the schedule "
                    f"(fuzz seed {seed} vs {baseline['fuzz_seed']}): "
                    f"{payload['results_repr']} != "
                    f"{baseline['results_repr']}",
                    payload["repro"])
            if failure is None:
                out(f"ok   {name} seed={seed} t={payload['time_ns']}ns "
                    f"decisions={payload['decisions']} "
                    f"digest={payload['digest'][:12]}")
                continue
            if artifacts_dir:
                failure.artifact = _write_artifact(artifacts_dir, payload,
                                                   failure)
            failures.append(failure)
            out(f"FAIL {name} seed={seed}: {failure.detail}")
            out(f"REPRO: {failure.repro}")
            if failure.artifact:
                out(f"artifact: {failure.artifact}")
    return failures


