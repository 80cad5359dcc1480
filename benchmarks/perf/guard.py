"""Exact-behaviour guard: every pinned virtual-time number in one record.

The simulator is deterministic, so what it computes is compared
exactly, never within a tolerance.  :func:`points` declares every
pinned measurement as a job of an existing runner kind:

- ``coll_bench`` — allreduce, flat ``default`` vs ``hier`` vs
  ``multilane``, 64-512 ranks on 2-rail SMP nodes;
- ``rma_bench`` — put/get/two-sided over RDMA and over the packetized
  path, 32 KiB-1 MiB on InfiniBand;
- ``workload`` — ``ml_training`` (flat vs hier) and ``cfd_halo`` (cart
  vs graph) at 8-512 ranks, and the ``ring_exchange`` large-world probe
  at 8-1024 ranks;
- ``mpi_pingpong`` — the 30-rep 1 KiB tcp ping-pong;
- the ``figure6_tcp`` plan's jobs (paper Figure 6, full grid).

``BENCH_guard.json`` stores each point's job digest, result digest and
payload (virtual times, checksums, counters, workload result digests).
A run compares job digest -> result digest with the check ``python -m
repro sweep --goldens`` makes, then asserts three acceptance ratios on
the run's own payloads: hierarchical allreduce and hierarchical
``ml_training`` beat flat at every rank count >= 64, and RDMA put/get
bandwidth is at least 1.3x the packetized path at every size.

Wall-clock is not measured here: the performance ledger
(``benchmarks/ledger``) measures it, in interleaved pairs.

Usage::

    python benchmarks/perf/guard.py --quick    # CI: the smaller worlds
    python benchmarks/perf/guard.py            # every point
    python benchmarks/perf/guard.py --write    # re-record every point
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.figures import assemble_figure, figure6_plan  # noqa: E402
from repro.runner import (  # noqa: E402
    JobResult,
    JobSpec,
    Runner,
    digest_mismatches,
)

RECORD = REPO_ROOT / "BENCH_guard.json"
MIN_RDMA_SPEEDUP = 1.3


def points(quick: bool = False) -> list[JobSpec]:
    """Every pinned measurement; ``quick`` skips the largest worlds and
    message sizes."""
    specs = [
        JobSpec("coll_bench",
                {"operation": "allreduce", "algorithm": algorithm,
                 "ranks": n, "processes_per_node": 2, "rails": 2,
                 "size": 65536, "reps": 3, "warmup": 1},
                label=f"allreduce/{algorithm}@{n}")
        for n in ((64, 128) if quick else (64, 128, 256, 512))
        for algorithm in ("default", "hier", "multilane")]
    specs += [
        JobSpec("rma_bench",
                {"operation": operation, "size": size, "rdma": rdma,
                 "reps": 3, "warmup": 1},
                label=f"{operation}/{'rdma' if rdma else 'packet'}@{size}")
        for size in ((65_536, 262_144) if quick
                     else (32_768, 65_536, 262_144, 1_048_576))
        for operation in ("put", "get", "two_sided")
        for rdma in (True, False)]
    for n in (8, 64) if quick else (8, 64, 256, 512):
        ppn = 2 if n < 64 else (4 if n < 256 else 8)
        specs += [
            JobSpec("workload",
                    {"workload": name, "metrics": True, "ranks": n,
                     "processes_per_node": ppn, key: variant},
                    label=f"{name}/{variant}@{n}")
            for name, key, variants in (
                ("ml_training", "algorithm", ("default", "hier")),
                ("cfd_halo", "topology", ("cart", "graph")))
            for variant in variants]
    ring = [(8, 4), (64, 4), (256, 4)]
    if not quick:
        ring += [(1024, 4), (1024, 43)]
    specs += [
        JobSpec("workload",
                {"workload": "ring_exchange", "ranks": n, "rounds": rounds},
                label=f"ring_exchange@{n}x{rounds}")
        for n, rounds in ring]
    specs.append(JobSpec("mpi_pingpong",
                         {"size": 1024, "networks": ["tcp"], "reps": 30},
                         label="mpi:tcp:1024Bx30"))
    return specs + figure6_plan().jobs()


def figure6_checksum(payloads: dict[str, dict]) -> int:
    """Every Figure 6 latency, in ns rounded, summed."""
    plan = figure6_plan()
    figure = assemble_figure(plan, [
        JobResult(spec, spec.digest, payloads[spec.label])
        for spec in plan.jobs()])
    return sum(round(latency * 1000) for series in figure.series.values()
               for latency in series.latency_us)


def ratios(payloads: dict[str, dict]) -> list[tuple[str, float, bool]]:
    """``(claim, ratio, holds)`` for every acceptance ratio the payloads
    cover."""
    out = []
    for label, flat in payloads.items():
        kind, _, at = label.partition("@")
        if kind == "allreduce/default":
            ratio = flat["mean_ns"] / payloads[f"allreduce/hier@{at}"]["mean_ns"]
            out.append((f"hier/flat allreduce @{at} ranks", ratio, ratio > 1))
        elif kind == "ml_training/default" and int(at) >= 64:
            ratio = flat["time_ns"] / payloads[f"ml_training/hier@{at}"]["time_ns"]
            out.append((f"hier/flat ml_training @{at} ranks", ratio, ratio > 1))
        elif kind in ("put/packet", "get/packet"):
            operation = kind.split("/")[0]
            ratio = (payloads[f"{operation}/rdma@{at}"]["bandwidth_mb_s"]
                     / flat["bandwidth_mb_s"])
            out.append((f"rdma/packetized {operation} @{at} B", ratio,
                        ratio >= MIN_RDMA_SPEEDUP))
    return out


def check(results: list[JobResult], record: dict) -> list[str]:
    """Every way ``results`` fail ``record``: points whose result drifted
    (named, with the payload fields that moved), then broken ratios."""
    pinned = record["points"]
    measured = {r.spec.label: r for r in results}
    golden = {pinned[label]["job"]: pinned[label]["result"]
              for label in measured if label in pinned}
    names = {entry["job"]: label for label, entry in pinned.items()}
    names.update({r.digest: r.spec.label for r in results})
    failures = []
    for job, want, got in digest_mismatches(
            {r.digest: r.result_digest for r in results}, golden):
        label = names[job]
        if want is None:
            failures.append(f"{label}: not in {RECORD.name}")
        elif got is None:
            failures.append(f"{label}: its job spec changed")
        else:
            old, new = pinned[label]["payload"], measured[label].payload
            moved = ", ".join(f"{key} {old.get(key)!r} -> {new.get(key)!r}"
                              for key in sorted(set(old) | set(new))
                              if old.get(key) != new.get(key))
            failures.append(f"{label}: result drifted ({moved})")
    failures += [f"{claim}: {ratio:.3f}x does not hold"
                 for claim, ratio, holds in ratios(
                     {label: r.payload for label, r in measured.items()})
                 if not holds]
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the largest worlds and sizes (CI)")
    parser.add_argument("--workers", type=int, default=2,
                        help="runner worker processes (default 2)")
    parser.add_argument("--write", action="store_true",
                        help=f"run every point and rewrite {RECORD.name}")
    args = parser.parse_args(argv)

    results = Runner(workers=args.workers, out=print).run(
        points(quick=args.quick and not args.write))
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAIL: {r.spec.label}: {r.error}")
    if failed:
        return 1
    payloads = {r.spec.label: r.payload for r in results}
    for claim, ratio, _ in ratios(payloads):
        print(f"{claim}: {ratio:.2f}x")
    if args.write:
        record = {"schema": "guard/1",
                  "figure6_tcp_latency_checksum": figure6_checksum(payloads),
                  "points": {r.spec.label: {"job": r.digest,
                                            "result": r.result_digest,
                                            "payload": r.payload}
                             for r in results}}
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(results)} points to {RECORD.name}")
    failures = check(results, json.loads(RECORD.read_text()))
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"guard: all {len(results)} points exact, every ratio holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
