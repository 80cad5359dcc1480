"""The performance ledger: seven workloads, both clocks, host time by layer.

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed 0]
        [--seconds 10] [--trace 0|1] [--smoke] [--output FILE]

Closed loop, one client: the simulator is a single-threaded batch
program, so the workloads run one after another, each pass in its own
fresh child process (``measure.py``), never two at once.  Without
``--trace`` both passes run: the *timed* pass (tracing off) gives the
end-to-end metrics, the *traced* pass the per-layer ones; their
difference is the tracing overhead.  Every metric is printed by name
with its unit, every workload's results are checked against an oracle,
and each child's result ends up as one JSON line::

    {"correct": true, "attempted": 70, "failed": 0, "metrics": {...}}

With one workload and one pass — how the benchmark driver calls this —
that is the last line of stdout.  ``--output`` writes the full record
(provenance, frozen sizes, op counts, per-rep raw timings) for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]

WORKLOADS = ("engine_raw", "p2p_eager", "p2p_bulk", "lossy_ring",
             "scale_1024", "ml_training", "paper_report")
#: A child that has not finished by then is killed and all its ops
#: count as failed (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 150
#: The driver makes 4 + 22 x workloads runs, all within this many seconds.
DRIVER_CAP_S = 3420
#: The layers above sim/ and marcel/ that a per-message optimisation touches.
STACK_LAYERS = ("mpi.api", "mpi.adi", "ch_mad", "madeleine", "networks")


def run_child(workload: str, trace: int, args) -> dict:
    """One pass of one workload in a fresh interpreter; never raises."""
    command = [sys.executable, str(LEDGER / "measure.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        return {"error": f"no result within {CHILD_TIMEOUT_S} s (hung?)"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"child exited with code {done.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable result line: {lines[-1][:200]!r}"}


def driver_line(record: dict, trace: int) -> dict:
    """The result in the benchmark contract's shape."""
    if "error" in record:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    units = ({name: unit for name, (unit, *_) in PER_LAYER.items()} if trace
             else {name: unit for name, (unit, _, _, listed)
                   in END_TO_END.items() if listed})
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"],
                           "unit": unit}
                    for name, unit in units.items()},
    }


def print_metrics(workload: str, record: dict, trace: int) -> None:
    label = "traced" if trace else "timed"
    if "error" in record:
        print(f"{workload} [{label}] FAILED: {record['error']}")
        return
    print(f"{workload} [{label}]  seed {record['seed']}  ops {record['ops']} "
          f"({record['op']})")
    table = PER_LAYER if trace else END_TO_END
    for name, (unit, *_) in table.items():
        metric = record["metrics"].get(name)
        if metric is None:
            continue
        spread = ""
        if "n" in metric:
            # n reps give a median; no percentile above it has ten
            # samples beyond it, so none is printed.
            spread = (f"  (median of n={metric['n']}, min {metric['min']:.6g}"
                      f", max {metric['max']:.6g})")
        print(f"  {name:<42} {metric['value']:>16.6g} {unit}{spread}")
    print(f"  oracle: {record['attempted']} ops checked, "
          f"{record['failed']} failed")
    for note in record["notes"]:
        print(f"    ! {note}")


def placement(workloads: dict) -> dict:
    """The traced layer shares that justify each workload's place."""

    def stack_share(shares: dict) -> float:
        return sum(shares.get(layer, 0.0) for layer in STACK_LAYERS)

    def whole(name: str) -> float:
        metrics = workloads[name]["traced"]["metrics"]
        total = sum(m["value"] for key, m in metrics.items()
                    if key.endswith(".self_s"))
        return sum(metrics[f"{layer}.self_s"]["value"]
                   for layer in STACK_LAYERS) / total

    retransmitting = sorted(
        name for name, passes in workloads.items()
        if passes["traced"]["metrics"]["madeleine.retransmits"]["value"] > 0)
    found = {
        "p2p_eager.stack_share": whole("p2p_eager"),
        "p2p_bulk.tcp_phase.stack_share": stack_share(
            workloads["p2p_bulk"]["traced"]["phase_layer_share"]["tcp"]),
        "engine_raw.stack_share": whole("engine_raw"),
        "workloads_with_retransmits": retransmitting,
    }
    found["ok"] = (found["p2p_eager.stack_share"] >= 0.30
                   and found["p2p_bulk.tcp_phase.stack_share"] < 0.02
                   and found["engine_raw.stack_share"] == 0.0
                   and retransmitting == ["lossy_ring"])
    return found


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: "
                             "all seven)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds input generation only (default 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed pass measures "
                             f"(default {RUN_SECONDS}; never fewer than 5 "
                             "reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass only; 1: traced pass only; "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (tests); numbers mean nothing")
    parser.add_argument("--output", default=None,
                        help="write the full record as JSON to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the ledger "
              "measures the repository it sits in", file=sys.stderr)
        return 2

    names = args.workload or list(WORKLOADS)
    passes = (0, 1) if args.trace is None else (args.trace,)
    cores = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    if load_start > cores:
        print(f"warning: 1-min load average {load_start:.2f} exceeds "
              f"{cores} cores; timings will be noisy", file=sys.stderr)
    started = time.perf_counter()

    workloads: dict[str, dict] = {}
    failed = False
    for name in names:
        workloads[name] = {}
        for trace in passes:
            record = run_child(name, trace, args)
            workloads[name]["traced" if trace else "timed"] = record
            print_metrics(name, record, trace)
            line = driver_line(record, trace)
            failed |= not line["correct"]
            print(json.dumps(line), flush=True)
        both = workloads[name]
        if len(both) == 2 and not any("error" in r for r in both.values()) \
                and both["timed"]["virtual_ns"] != both["traced"]["virtual_ns"]:
            failed = True
            print(f"{name}: virtual time differs between the timed and the "
                  "traced pass", file=sys.stderr)

    elapsed = time.perf_counter() - started
    children = len(names) * len(passes)
    if args.output or children > 1:
        runs = 4 + 22 * len(WORKLOADS)
        print(f"# {children} child runs in {elapsed:.0f} s; the driver makes "
              f"{runs}: about {elapsed / children * runs:.0f} s of its "
              f"{DRIVER_CAP_S} s cap", file=sys.stderr)
    if args.output:
        record = {
            "schema": "ledger/1",
            "claim": None,
            "provenance": {
                "git_commit": git_commit(),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": cores,
                "loadavg_1min_start": load_start,
                "loadavg_1min_end": os.getloadavg()[0],
                "seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke, "elapsed_s": elapsed,
            },
            "workloads": workloads,
        }
        if set(names) == set(WORKLOADS) and len(passes) == 2 and not failed:
            record["placement"] = placement(workloads)
        Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
        print(f"# wrote {args.output}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
