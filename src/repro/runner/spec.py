"""Job descriptions and canonical digests for the batch runner.

A :class:`JobSpec` is a *complete, serializable* description of one
simulation job: the executor kind (see :mod:`repro.workloads.executors`), its
code-relevant parameters, and the seed.  Two specs that would produce
the same simulation produce the same :attr:`JobSpec.digest` — the
content address under which the result cache files the outcome.  The
digest deliberately excludes anything cosmetic (the display ``label``),
and includes a schema version so a change to the payload format
invalidates every stale entry at once.

Determinism makes this sound: a simulation run is a pure function of
``(configuration, seed)`` (see DESIGN.md), so the digest of the inputs
is a valid address for the outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Mapping

#: Bumped whenever a payload format (or an executor's meaning) changes
#: incompatibly; part of every job digest, so old cache entries simply
#: stop matching instead of being misread.
CACHE_SCHEMA = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace.

    The same value always renders to the same byte string, which is what
    makes digests over it content addresses.  Only JSON-safe values are
    accepted (tuples degrade to lists, like ``json`` always does).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """Content digest of a JSON-safe result payload."""
    return sha256(canonical_json(payload).encode()).hexdigest()


def digest_mismatches(measured: Mapping[str, str], golden: Mapping[str, str]
                      ) -> list[tuple[str, str | None, str | None]]:
    """Jobs whose result digest differs from the golden one.

    Both maps are job digest -> result digest.  Each mismatch is
    ``(job digest, golden, measured)``, with None on the side that lacks
    the job; an empty list means every result is bit-identical.
    """
    mismatches = [(job, want, measured.get(job))
                  for job, want in golden.items() if measured.get(job) != want]
    return mismatches + [(job, None, got) for job, got in measured.items()
                         if job not in golden]


@dataclass(frozen=True)
class JobSpec:
    """One batch job: an executor kind plus its parameters and seed.

    ``params`` must be JSON-safe (the spec crosses process boundaries
    and is persisted next to cached results).  ``label`` is display-only
    and excluded from the digest.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    label: str = ""

    def canonical(self) -> dict[str, Any]:
        """The code-relevant content of this job, digest-ready."""
        return {
            "schema": CACHE_SCHEMA,
            "kind": self.kind,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @property
    def digest(self) -> str:
        """Content address of this job (sha256 of :meth:`canonical`)."""
        return sha256(canonical_json(self.canonical()).encode()).hexdigest()

    @property
    def display(self) -> str:
        return self.label or f"{self.kind}:{self.digest[:10]}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobSpec {self.display} digest={self.digest[:12]}>"


@dataclass
class JobResult:
    """Outcome of one job execution (or cache hit).

    ``payload`` is the executor's JSON-safe return value;
    ``result_digest`` is its content digest — bit-identical reruns
    produce bit-identical digests, which is what the parallel-vs-serial
    and warm-cache acceptance checks compare.
    """

    spec: JobSpec
    digest: str
    payload: Any = None
    result_digest: str = ""
    wall_s: float = 0.0
    attempts: int = 1
    cached: bool = False
    error: str | None = None
    artifacts: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None
