"""The two passes of one ledger child: timed reps and one traced rep.

*timed* (``--trace 0``)
    One discarded warm-up rep, then reps until ``--seconds`` of
    measuring have passed (never fewer than :data:`MIN_REPS`).  Every
    rep generates the inputs again, builds a fresh world and runs the
    workload's phases with instrumentation, checker, tracer and
    profiler off (``EngineConfig()`` defaults); ``gc.collect()`` runs
    between reps and the collector is otherwise left as users run it.

*traced* (``--trace 1``)
    Three reps on the same inputs.  *plain*: as in the timed pass.
    *profiled*: the same configuration under ``cProfile``, whose stats
    :mod:`layers` splits into per-layer self time — the profile hook is
    installed here, around the calls into the repository, and nothing
    in ``src/`` knows about it.  *observed*: no profiler, but
    ``EngineConfig(instrumentation=True, checker=True)``, to read the
    stack's public counters from ``engine.instruments.metrics`` and let
    the checker audit the run.  Profiling the observed rep instead
    would put 15-20 % of the self time into the metrics registry and
    the checker, which the timed path never runs; kept apart, the layer
    split explains ``wall_s`` and each observer's cost is its own ratio.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import repro
from repro.sim import Counter, EngineConfig

from layers import LAYERS, LayerMap, split_profile
from metrics import PER_LAYER
from workloads import Accuracy, Check, Phase, Workload

LEDGER = Path(__file__).resolve().parent

#: Timed reps per run, whatever ``--seconds`` says.
MIN_REPS = 5


def summary(values: list[float]) -> dict:
    # With a handful of reps no percentile above the median has ten
    # samples beyond it, so none is reported.
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Rep:
    """One repetition: set-up, the phases, the oracle's verdict.

    Only numbers survive the constructor: the worlds are dropped before
    it returns, so a child's ``peak_rss_mb`` is that of one live world
    however many reps it runs.
    """

    def __init__(self, workload: Workload, seed: int, sizes: dict,
                 engine_config: EngineConfig,
                 layer_map: LayerMap | None = None):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.generate(seed, sizes)
        self.generate_s = time.perf_counter() - start
        phases = workload.build(inputs, sizes, engine_config)
        self.setup_s = time.perf_counter() - start
        #: phase -> host seconds / kind (ops completed: ``phase_ops``).
        self.phase_s: dict[str, float] = {}
        self.phase_kind = {phase.name: phase.kind for phase in phases}
        #: phase -> :func:`layers.split_profile` (profiled reps only).
        self.profiles: dict[str, dict] = {}
        self.error: str | None = None
        results = {}
        try:
            for phase in phases:
                profiler = cProfile.Profile() if layer_map else None
                begin = time.perf_counter()
                if profiler:
                    profiler.enable()
                try:
                    results[phase.name] = phase.run()
                finally:
                    if profiler:
                        profiler.disable()
                    self.phase_s[phase.name] = time.perf_counter() - begin
                if profiler:
                    self.profiles[phase.name] = split_profile(
                        profiler.getstats(), layer_map)
        except Exception as exc:  # noqa: BLE001 - a failed rep is a result
            # A DeadlockError's message is the wait-for-graph diagnosis:
            # print it so a hang explains itself, then count the rep.
            self.error = f"{type(exc).__name__}: {exc}"
            print(f"[ledger] {workload.name}: rep failed\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            self.check = Check()
            self.digest = None
        else:
            self.check = workload.check(inputs, sizes, results)
            self.digest = workload.digest(results)
        self.wall_s = sum(self.phase_s.values())
        self.phase_ops = {name: r.ops for name, r in results.items()}
        self.ops = sum(self.phase_ops.values())
        self.virtual_ns = sum(r.virtual_ns for r in results.values())
        self.counters = (counters(phases)
                         if engine_config.instrumentation else None)

    def seconds(self, *kinds: str) -> float:
        """Host seconds of the phases of the given kinds."""
        return sum(s for name, s in self.phase_s.items()
                   if self.phase_kind[name] in kinds)


def base_record(args, workload: Workload, sizes: dict, reps: list[Rep],
                imports: list[float], accuracy: Accuracy | None) -> dict:
    """What both passes report: identity, op count, virtual time and
    the attempted/failed ops over ``reps`` plus the cross-rep checks."""
    good = [rep for rep in reps if rep.error is None]
    # A rep that raised fails as many ops as a clean rep checks.
    per_rep = max((rep.check.attempted for rep in good), default=1)
    attempted = failed = 0
    notes: list[str] = []
    for rep in reps:
        if rep.error is None:
            attempted += rep.check.attempted
            failed += rep.check.failed
            notes += rep.check.notes
        else:
            attempted += per_rep
            failed += per_rep
            notes.append(rep.error)
    same = Check()
    virtuals = sorted({rep.virtual_ns for rep in good})
    same.expect(len(virtuals) <= 1,
                f"virtual time differs between reps: {virtuals}")
    ops = sorted({rep.ops for rep in good})
    same.expect(len(ops) <= 1, f"op count differs between reps: {ops}")
    digests = sorted({str(rep.digest) for rep in good})
    same.expect(len(digests) <= 1,
                f"result digest differs between reps: {digests}")
    for check in (same, accuracy.check if accuracy else Check()):
        attempted += check.attempted
        failed += check.failed
        notes += check.notes
    return {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "sizes": sizes, "op": workload.op,
        "ops": ops[0] if ops else 0,
        "virtual_ns": virtuals[0] if virtuals else 0,
        "import_s": imports,
        "attempted": attempted, "failed": failed, "notes": notes[:20],
    }


def timed_pass(args, workload: Workload, sizes: dict,
               imports: list[float]) -> dict:
    Rep(workload, args.seed, sizes, EngineConfig())      # warm-up, discarded
    reps: list[Rep] = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(Rep(workload, args.seed, sizes, EngineConfig()))
    good = [rep for rep in reps if rep.error is None]
    accuracy = workload.accuracy(sizes)

    record = base_record(args, workload, sizes, reps, imports, accuracy)
    wall = summary([rep.wall_s for rep in good or reps])
    build = summary([rep.setup_s for rep in good or reps])
    import_s = statistics.median(imports)
    ops = record["ops"]
    metrics = {
        "wall_s": wall,
        "ops_per_s": {"value": ops / wall["value"], "min": ops / wall["max"],
                      "max": ops / wall["min"], "n": wall["n"]},
        # One import figure per child (a median of IMPORT_SAMPLES), so
        # the range is that of the per-rep generate+build times.
        "setup_s": {"value": import_s + build["value"],
                    "min": import_s + build["min"],
                    "max": import_s + build["max"], "n": build["n"],
                    "import_s": import_s},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "virtual_ms": {"value": record["virtual_ns"] / 1e6},
        "failed_share": {"value": record["failed"] / record["attempted"]},
    }
    if accuracy:
        metrics["paper_mape_pct"] = {"value": accuracy.mape_pct}
    record.update({
        "pass": "timed", "reps": len(reps), "metrics": metrics,
        "per_rep": {
            "wall_s": [rep.wall_s for rep in reps],
            "setup_s": [rep.setup_s for rep in reps],
            "phase_s": {name: [rep.phase_s.get(name) for rep in reps]
                        for name in reps[0].phase_s},
        },
    })
    return record


def counters(phases: list[Phase]) -> dict:
    """The stack's public counters, summed over a rep's phases."""
    registries = [p.metrics for p in phases if p.metrics is not None]
    engines = [p.engine for p in phases if p.engine is not None]
    modes: dict[str, float] = {}
    for registry in registries:
        for counter in registry.collect(Counter):
            if counter.name == "adi.mode":
                mode = dict(counter.labels)["mode"]
                modes[mode] = modes.get(mode, 0) + counter.value
    return {
        "events": sum(engine.events_executed for engine in engines),
        "cpu_busy_ns": sum(cpu.busy_time for p in phases for cpu in p.cpus),
        "violations": sum(len(engine.checker.violations)
                          for engine in engines),
        "adi_msgs": sum(modes.values()),
        "adi_rndv": modes.get("rendezvous", 0),
        "runner_jobs": sum(registry.value("runner.jobs", status="ok")
                           for registry in registries),
        **{name: sum(registry.total(name) for registry in registries)
           for name in (
               "poll.wakeups", "poll.idle_ns", "mad.messages", "mad.blocks",
               "mad.bytes", "transport.retransmits", "transport.duplicates",
               "transport.acks", "faults.dropped", "rdma.writes",
               "rdma.reg_misses", "chmad.packets")},
    }


def traced_pass(args, workload: Workload, sizes: dict,
                imports: list[float]) -> dict:
    plain = Rep(workload, args.seed, sizes, EngineConfig())
    profiled = Rep(workload, args.seed, sizes, EngineConfig(),
                   layer_map=LayerMap(str(Path(repro.__file__).parent)))
    observed = Rep(workload, args.seed, sizes,
                   EngineConfig(instrumentation=True, checker=True,
                                checker_raise=False))
    accuracy = workload.accuracy(sizes)
    record = base_record(args, workload, sizes, [plain, profiled, observed],
                         imports, accuracy)
    seen = observed.counters
    clean = Check()
    clean.expect(seen["violations"] == 0,
                 f"{seen['violations']} checker violations")
    record["attempted"] += clean.attempted
    record["failed"] += clean.failed
    record["notes"] += clean.notes

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for profile in profiled.profiles.values():
        for layer, seconds in profile["self_s"].items():
            self_s[layer] += seconds
        for layer, count in profile["calls"].items():
            calls[layer] += count

    # Host-time differencing over public entry points, no tracing
    # needed: engine floor -> raw Madeleine -> full MPI (§5.4's shape).
    raw_msgs = sum(ops for name, ops in plain.phase_ops.items()
                   if plain.phase_kind[name] == "raw")
    engine_s = plain.seconds("mpi", "sim")
    mpi_us = 1e6 * ratio(plain.seconds("mpi"), seen["adi_msgs"])
    raw_us = 1e6 * ratio(plain.seconds("raw"), raw_msgs)
    overhead = accuracy.overhead_us if accuracy else {}

    values = {
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        **{f"{layer}.calls": calls[layer] for layer in LAYERS},
        "sim.engine.events": seen["events"],
        "sim.engine.events_per_s": ratio(seen["events"], engine_s),
        "sim.engine.host_us_per_event": 1e6 * ratio(engine_s, seen["events"]),
        "sim.engine.virtual_ms": observed.virtual_ns / 1e6,
        "sim.cpu.busy_virtual_ms": seen["cpu_busy_ns"] / 1e6,
        "marcel.poll_wakeups": seen["poll.wakeups"],
        "marcel.poll_idle_virtual_ms": seen["poll.idle_ns"] / 1e6,
        "madeleine.messages": seen["mad.messages"],
        "madeleine.blocks": seen["mad.blocks"],
        "madeleine.bytes": seen["mad.bytes"],
        "madeleine.raw_host_us_per_msg": raw_us,
        "madeleine.retransmits": seen["transport.retransmits"],
        "madeleine.duplicates": seen["transport.duplicates"],
        "madeleine.acks": seen["transport.acks"],
        "madeleine.retransmit_useful_ratio": ratio(
            seen["faults.dropped"], seen["transport.retransmits"]),
        "faults.dropped": seen["faults.dropped"],
        "networks.rdma_writes": seen["rdma.writes"],
        "networks.rdma_reg_misses": seen["rdma.reg_misses"],
        "ch_mad.packets": seen["chmad.packets"],
        "ch_mad.packets_per_msg": ratio(seen["chmad.packets"],
                                        seen["adi_msgs"]),
        "ch_mad.virtual_overhead_us.tcp": overhead.get("tcp", 0.0),
        "ch_mad.virtual_overhead_us.sisci": overhead.get("sisci", 0.0),
        "ch_mad.virtual_overhead_us.bip": overhead.get("bip", 0.0),
        "mpi.adi.msgs": seen["adi_msgs"],
        "mpi.adi.rndv_share": ratio(seen["adi_rndv"], seen["adi_msgs"]),
        "mpi.api.host_us_per_msg": mpi_us,
        "mpi.api.over_madeleine_host_us_per_msg":
            mpi_us - raw_us if raw_msgs else 0.0,
        "cluster.build_s": plain.setup_s - plain.generate_s,
        "cluster.import_s": statistics.median(imports),
        "runner.jobs": seen["runner_jobs"],
        "check.violations": seen["violations"],
        "bench.trace_overhead_ratio": ratio(profiled.wall_s, plain.wall_s),
        "bench.observe_overhead_ratio": ratio(observed.wall_s, plain.wall_s),
        "bench.paper_mape_pct": accuracy.mape_pct if accuracy else 0.0,
    }
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError("traced pass and metrics.PER_LAYER disagree: "
                           f"{sorted(values.keys() ^ PER_LAYER.keys())}")

    record.update({
        "pass": "traced",
        "metrics": {name: {"value": value} for name, value in values.items()},
        "phase_s": {"plain": plain.phase_s, "profiled": profiled.phase_s,
                    "observed": observed.phase_s},
        "phase_layer_share": {
            phase: {layer: seconds / profile["total_s"]
                    for layer, seconds in sorted(profile["self_s"].items())}
            for phase, profile in profiled.profiles.items()},
    })
    # The spans — per phase: per-layer self time, calls and the
    # caller-layer -> callee-layer edges — were kept in memory until
    # here; write them out now that the run has ended.
    out = LEDGER / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload.name}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "smoke": args.smoke,
         "counters": seen, "phases": profiled.profiles}, indent=1))
    return record
