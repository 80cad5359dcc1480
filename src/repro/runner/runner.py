"""The process-pool batch runner.

``Runner.run(specs)`` takes a list of :class:`JobSpec`s and returns one
:class:`JobResult` per spec, in order.  Between the two it:

- answers what it can from the content-addressed
  :class:`~repro.runner.cache.ResultCache` (warm re-runs never touch a
  worker);
- fans the misses out across ``workers`` processes
  (``concurrent.futures.ProcessPoolExecutor``), falling back to inline
  execution for ``workers <= 1`` so serial callers pay no pool tax and
  see ad-hoc executor kinds registered in *this* process;
- retries failed jobs with exponential backoff, and survives outright
  worker crashes (``BrokenProcessPool``) by rebuilding the pool and
  requeueing whatever was in flight;
- reports live progress and an ETA through a
  :class:`~repro.sim.metrics.MetricsRegistry` (counters/gauges/histogram
  under ``runner.*``) plus an optional line-printer callback.

Every simulation job is a pure function of its spec, so caching and
retry are semantically invisible: the payload (and its content digest)
is bit-identical however many times, in whichever process, a job runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.runner.cache import ResultCache
from repro.workloads.executors import execute
from repro.runner.spec import JobResult, JobSpec, payload_digest
from repro.sim.metrics import MetricsRegistry


def _execute_timed(spec: JobSpec) -> tuple[Any, float]:
    """Worker entry point: run one spec, return (payload, wall seconds)."""
    start = time.perf_counter()
    payload = execute(spec)
    return payload, time.perf_counter() - start


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class Runner:
    """Batch executor with caching, retry and progress reporting.

    ``cache`` may be a :class:`ResultCache`, a directory path, or None
    (no caching).  ``out`` receives one human-readable line per job
    completion; pass ``print`` for CLI use, leave None for silence.
    """

    def __init__(self, workers: int = 1,
                 cache: ResultCache | str | os.PathLike | None = None,
                 retries: int = 2, backoff_s: float = 0.05,
                 out: Callable[[str], None] | None = None,
                 metrics: MetricsRegistry | None = None):
        self.workers = max(1, int(workers))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.out = out
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- public ------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        specs = list(specs)
        results: list[JobResult | None] = [None] * len(specs)
        self.metrics.counter("runner.jobs", status="submitted").inc(len(specs))
        self._done = 0
        self._total = len(specs)
        self._wall_done = 0.0
        self._start = time.perf_counter()

        pending: list[int] = []
        for index, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[index] = JobResult(
                    spec=spec, digest=spec.digest, payload=hit["payload"],
                    result_digest=hit["result_digest"],
                    wall_s=hit.get("wall_s", 0.0), cached=True, attempts=0,
                )
                self._progress(results[index])
            else:
                pending.append(index)

        if pending:
            if self.workers == 1 or len(pending) == 1:
                self._run_inline(specs, pending, results)
            else:
                self._run_pool(specs, pending, results)
        return [r for r in results if r is not None]

    # -- execution strategies ----------------------------------------------

    def _run_inline(self, specs, pending, results) -> None:
        for index in pending:
            spec = specs[index]
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload, wall = _execute_timed(spec)
                except Exception as exc:  # noqa: BLE001 - reported upward
                    if attempts <= self.retries:
                        self._note_retry(spec, attempts, exc)
                        continue
                    results[index] = self._failure(spec, attempts, exc)
                    break
                results[index] = self._success(spec, payload, wall, attempts)
                break

    def _run_pool(self, specs, pending, results) -> None:
        queue = [(index, 1) for index in pending]  # (spec index, attempt)
        inflight: dict[Any, tuple[int, int]] = {}
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(queue)))
        gauge = self.metrics.gauge("runner.inflight")
        try:
            while queue or inflight:
                while queue and len(inflight) < self.workers:
                    index, attempt = queue.pop(0)
                    future = pool.submit(_execute_timed, specs[index])
                    inflight[future] = (index, attempt)
                    gauge.set(len(inflight))
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    index, attempt = inflight.pop(future)
                    spec = specs[index]
                    exc = future.exception()
                    if exc is None:
                        payload, wall = future.result()
                        results[index] = self._success(
                            spec, payload, wall, attempt)
                    elif isinstance(exc, BrokenProcessPool):
                        # The worker died under this job (or a neighbour);
                        # the pool is unusable — rebuild and requeue.
                        broken = True
                        self._requeue_or_fail(queue, results, spec, index,
                                              attempt, exc)
                    elif attempt <= self.retries:
                        self._note_retry(spec, attempt, exc)
                        time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                        queue.append((index, attempt + 1))
                    else:
                        results[index] = self._failure(spec, attempt, exc)
                if broken:
                    # Jobs stranded in the dead pool get requeued too.
                    for future, (index, attempt) in list(inflight.items()):
                        self._requeue_or_fail(
                            queue, results, specs[index], index, attempt,
                            BrokenProcessPool("worker pool died"))
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.workers, max(1, len(queue))))
                gauge.set(len(inflight))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _requeue_or_fail(self, queue, results, spec, index, attempt,
                         exc) -> None:
        if attempt <= self.retries:
            self._note_retry(spec, attempt, exc)
            time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            queue.append((index, attempt + 1))
        else:
            results[index] = self._failure(spec, attempt, exc)

    # -- bookkeeping -------------------------------------------------------

    def _success(self, spec: JobSpec, payload: Any, wall: float,
                 attempts: int) -> JobResult:
        digest = payload_digest(payload)
        if self.cache is not None:
            self.cache.put(spec, payload, wall_s=wall)
        result = JobResult(spec=spec, digest=spec.digest, payload=payload,
                           result_digest=digest, wall_s=wall,
                           attempts=attempts)
        self.metrics.counter("runner.jobs", status="ok").inc()
        self.metrics.histogram("runner.wall_s").observe(wall)
        self._progress(result)
        return result

    def _failure(self, spec: JobSpec, attempts: int,
                 exc: BaseException) -> JobResult:
        result = JobResult(spec=spec, digest=spec.digest, attempts=attempts,
                           error=f"{type(exc).__name__}: {exc}")
        self.metrics.counter("runner.jobs", status="failed").inc()
        self._progress(result)
        return result

    def _note_retry(self, spec: JobSpec, attempt: int,
                    exc: BaseException) -> None:
        self.metrics.counter("runner.jobs", status="retried").inc()
        if self.out:
            self.out(f"retry {spec.display} (attempt {attempt} failed: "
                     f"{type(exc).__name__}: {exc})")

    def _progress(self, result: JobResult) -> None:
        self._done += 1
        self.metrics.gauge("runner.done").set(self._done)
        if not result.cached:
            self._wall_done += result.wall_s
        if not self.out:
            return
        state = ("cached" if result.cached
                 else "ok" if result.ok else "FAIL")
        line = (f"[{self._done}/{self._total}] {state:6s} "
                f"{result.spec.display}")
        if result.ok:
            line += f" result={result.result_digest[:12]}"
        if not result.cached:
            line += f" {result.wall_s:.2f}s"
        remaining = self._total - self._done
        if remaining and self._done:
            elapsed = time.perf_counter() - self._start
            eta = elapsed / self._done * remaining
            line += f" eta={eta:.0f}s"
        if result.error:
            line += f" error={result.error}"
        self.out(line)


def run_specs(specs: Sequence[JobSpec], *, workers: int = 1,
              cache: ResultCache | str | os.PathLike | None = None,
              out: Callable[[str], None] | None = None,
              **kwargs: Any) -> list[JobResult]:
    """One-shot convenience wrapper around :class:`Runner`."""
    return Runner(workers=workers, cache=cache, out=out, **kwargs).run(specs)
