"""Simulator wall-clock micro-benchmarks (the perf trajectory's measuring stick).

Three probes, smallest to largest:

- ``engine_throughput`` — raw event loop: how many schedule+execute
  cycles per second the :class:`~repro.sim.engine.Engine` sustains.
- ``pingpong_rate`` — the full MPI stack: events per second while a
  ch_mad/TCP ping-pong runs (exercises CPU dispatch, polling, NIC
  models — the profile mix of the paper figures).
- ``figure6_wall`` — end-to-end: wall-clock seconds for one complete
  ``figure6_tcp`` series, the number the ISSUE's >= 2x target is
  measured against.

``python benchmarks/perf/simperf.py --output BENCH_simperf.json``
writes a machine-readable record; with ``--baseline`` the run is compared
with the committed record (:func:`check_baseline`): a >30 % ``figure6_wall``
wall-clock regression fails, and so does any difference in what the
probes *compute* — the figure's latency checksum, the ping-pong's one-way
time — or a ping-pong that needs more engine events than the baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.engine import Engine  # noqa: E402


def engine_throughput(n_events: int = 200_000) -> dict:
    """Events/second through a bare engine (self-rescheduling chain)."""
    engine = Engine()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(10, tick)

    engine.schedule(0, tick)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "events": engine.events_executed,
        "seconds": elapsed,
        "events_per_sec": engine.events_executed / elapsed,
    }


def pingpong_rate(size: int = 1024, reps: int = 30) -> dict:
    """Engine events/second during a full-stack ch_mad/TCP ping-pong."""
    from repro.bench.pingpong import mpi_pingpong
    from repro.cluster.config import two_node_cluster
    from repro.cluster.session import MPIWorld

    # Warm the caches (imports, first-build costs) and grab the virtual-time
    # latency from the public entry point.
    result = mpi_pingpong(size, networks=("tcp",), reps=reps)

    # Then measure events/second on ONE run: the numerator (events) and the
    # denominator (wall seconds) must come from the same world, and the
    # timed region must exclude world construction.  (An earlier version
    # divided a probe world's event count by mpi_pingpong's wall time —
    # construction noise moved the rate ~2x between runs while one_way_ns
    # sat still.)
    world = MPIWorld(two_node_cluster(networks=("tcp",)))

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            for _ in range(reps):
                yield from comm.send(b"", dest=1, tag=9, size=size)
                yield from comm.recv(source=1, tag=9, size=size)
        else:
            for _ in range(reps):
                yield from comm.recv(source=0, tag=9, size=size)
                yield from comm.send(b"", dest=0, tag=9, size=size)

    start = time.perf_counter()
    world.run(program)
    elapsed = time.perf_counter() - start
    events = world.engine.events_executed
    return {
        "size": size,
        "reps": reps,
        "one_way_ns": result.one_way_ns,
        "seconds": elapsed,
        "events_executed": events,
        "events_per_sec": events / elapsed if elapsed else 0.0,
    }


def figure6_wall() -> dict:
    """Wall-clock for one full figure6_tcp sweep (the acceptance probe)."""
    from repro.bench.figures import figure6_tcp

    start = time.perf_counter()
    figure = figure6_tcp()
    elapsed = time.perf_counter() - start
    # A stable virtual-time checksum rides along so a perf run that
    # accidentally changed results is caught even outside the test suite.
    checksum = sum(
        round(latency * 1000)
        for series in figure.series.values() for latency in series.latency_us
    )
    return {"seconds": elapsed, "latency_checksum": checksum}


def run_suite(quick: bool = False) -> dict:
    probes = {
        "engine_throughput": engine_throughput(50_000 if quick else 200_000),
        "pingpong_rate": pingpong_rate(reps=8 if quick else 30),
    }
    if not quick:
        probes["figure6_wall"] = figure6_wall()
    return {
        "schema": "simperf/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "probes": probes,
    }


def check_baseline(record: dict, baseline: dict,
                   max_regression: float = 0.30) -> list[str]:
    """Compare a run with the committed baseline; returns the failures.

    Wall-clock is toleranced (``figure6_wall`` may be up to
    ``max_regression`` slower).  What the simulator *computes* is not:
    the figure's latency checksum and the ping-pong's one-way time must
    equal the baseline's, and the ping-pong may not execute more events
    than the baseline did — the count repeats exactly, so one event more
    means a fused charge came apart (or a poll tick stopped being
    skipped).  Probes the run did not make (``--quick`` has no figure,
    and a different ``reps``) are not compared.
    """
    failures = []
    probes, base = record["probes"], baseline.get("probes", {})
    wall, base_wall = probes.get("figure6_wall"), base.get("figure6_wall")
    if wall and base_wall:
        ratio = wall["seconds"] / base_wall["seconds"]
        record["figure6_wall_vs_baseline"] = ratio
        if ratio > 1.0 + max_regression:
            failures.append(
                f"figure6 wall-clock {wall['seconds']:.2f}s is {ratio:.2f}x "
                f"the baseline {base_wall['seconds']:.2f}s "
                f"(limit {1.0 + max_regression:.2f}x)")
        if wall["latency_checksum"] != base_wall["latency_checksum"]:
            failures.append(
                f"figure6 latency checksum {wall['latency_checksum']} != "
                f"baseline {base_wall['latency_checksum']}: virtual times "
                "changed")
    rate, base_rate = probes.get("pingpong_rate"), base.get("pingpong_rate")
    if rate and base_rate and all(rate[k] == base_rate[k]
                                  for k in ("size", "reps")):
        if rate["one_way_ns"] != base_rate["one_way_ns"]:
            failures.append(
                f"pingpong one_way_ns {rate['one_way_ns']} != baseline "
                f"{base_rate['one_way_ns']}: virtual times changed")
        if rate["events_executed"] > base_rate["events_executed"]:
            failures.append(
                f"pingpong executed {rate['events_executed']} events, "
                f"baseline {base_rate['events_executed']}: the stack "
                "prices the same messages with more events")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", default=None,
                        help="write the record as JSON to this path")
    parser.add_argument("--quick", action="store_true",
                        help="smaller probe sizes (CI smoke / pre-commit)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_simperf.json to merge 'before' "
                             "numbers from and check against (wall-clock "
                             "toleranced, virtual times and event count "
                             "exact)")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail if figure6 wall-clock regresses more than "
                             "this fraction vs the baseline (default 0.30)")
    args = parser.parse_args(argv)

    record = run_suite(quick=args.quick)

    status = 0
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        record["baseline_before"] = baseline.get("before")
        for failure in check_baseline(record, baseline, args.max_regression):
            print(f"FAIL: {failure}")
            status = 1

    text = json.dumps(record, indent=1, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    print(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
