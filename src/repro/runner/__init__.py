"""Batch execution: fan simulation jobs across worker processes.

The experiment pipeline (paper-figure sweeps, fuzz seed sweeps, soak
workloads) is embarrassingly parallel — every job is a pure function of
a :class:`JobSpec` — so this package turns the old inline for-loops
into batch workloads:

- :mod:`repro.runner.spec` — serializable job descriptions and their
  canonical content digests;
- :mod:`repro.workloads.executors` — the executor registry (what a job
  *does*);
- :mod:`repro.runner.cache` — content-addressed on-disk result cache
  (same spec → instant, bit-identical re-run);
- :mod:`repro.runner.runner` — the process pool with crash retry and
  live progress/ETA via :mod:`repro.sim.metrics`.

Front ends: ``python -m repro`` (the unified CLI),
:func:`repro.bench.figures.build_figure` and
:func:`repro.check.fuzz.run_sweep`.
"""

from repro.runner.cache import CACHE_ENV, ResultCache, default_cache_dir
from repro.workloads.executors import EXECUTORS, execute, register
from repro.runner.runner import Runner, default_workers, run_specs
from repro.runner.spec import (
    CACHE_SCHEMA,
    JobResult,
    JobSpec,
    canonical_json,
    digest_mismatches,
    payload_digest,
)

__all__ = [
    "CACHE_ENV",
    "CACHE_SCHEMA",
    "EXECUTORS",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "Runner",
    "canonical_json",
    "default_cache_dir",
    "default_workers",
    "digest_mismatches",
    "execute",
    "payload_digest",
    "register",
    "run_specs",
]
