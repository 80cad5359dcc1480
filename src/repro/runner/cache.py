"""Content-addressed on-disk result cache for the batch runner.

Layout: ``<root>/<key[:2]>/<key>.json``, one envelope per job digest
and code digest: the key hashes both, so a result is only ever served
to the code that made it (:func:`code_digest`), and entries made by
other versions of the code sit side by side.  The envelope carries the
job's canonical description and the code digest alongside the payload,
so a cache directory is self-describing (and auditable with nothing
but ``jq``).  Writes are atomic (temp file + ``os.replace``)
so a crashed worker can never leave a half-written entry; reads verify
the stored ``result_digest`` against the payload and treat any mismatch
or parse error as a miss — corruption costs a re-run, never a wrong
result.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
from hashlib import sha256
from pathlib import Path
from typing import Any

from repro.runner.spec import CACHE_SCHEMA, JobSpec, canonical_json, payload_digest

#: Environment override for the default cache location.
CACHE_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, ".repro-cache"))


@functools.cache
def code_digest() -> str:
    """sha256 of the sources a job can run: every ``repro/**/*.py``
    except ``cli.py`` and ``runner/`` (they schedule jobs, they compute
    no result).  Computed once per process, on the first cache access.
    """
    package = Path(__file__).resolve().parents[1]
    digest = sha256()
    for file in sorted(package.rglob("*.py")):
        name = file.relative_to(package).as_posix()
        if name == "cli.py" or name.startswith("runner/"):
            continue
        digest.update(name.encode() + b"\0" + file.read_bytes() + b"\0")
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of job results, keyed by job digest and
    code digest."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path(self, digest: str) -> Path:
        """Where the result of the job with ``digest`` lives for this code."""
        key = sha256(f"{digest}:{code_digest()}".encode()).hexdigest()
        return self.root / key[:2] / f"{key}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, spec: JobSpec) -> dict[str, Any] | None:
        """The stored envelope for ``spec``, or None (a verified miss)."""
        path = self.path(spec.digest)
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (envelope.get("schema") != CACHE_SCHEMA
                or envelope.get("code") != code_digest()
                or envelope.get("job") != spec.canonical()
                or envelope.get("result_digest")
                != payload_digest(envelope.get("payload"))):
            self.misses += 1
            return None
        self.hits += 1
        return envelope

    # -- store -------------------------------------------------------------

    def put(self, spec: JobSpec, payload: Any, *,
            wall_s: float = 0.0) -> dict[str, Any]:
        """Atomically persist ``payload`` under ``spec``'s digest."""
        envelope = {
            "schema": CACHE_SCHEMA,
            "code": code_digest(),
            "job": spec.canonical(),
            "label": spec.label,
            "payload": payload,
            "result_digest": payload_digest(payload),
            "wall_s": wall_s,
            "created": time.time(),
        }
        path = self.path(spec.digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(envelope))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return envelope

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResultCache {self.root} entries={len(self)} "
                f"hits={self.hits} misses={self.misses}>")
