"""The ledger's seven workloads: inputs, worlds, timed phases and oracles.

Every workload has the same four steps, and ``measure.py`` times them
from outside:

``generate(seed, sizes)``
    Pure-Python inputs from the ledger seed.  The program under test
    never sees the seed, only what this returns.
``build(inputs, sizes, engine_config)``
    Construct the worlds (set-up, timed as ``setup_s``) and return the
    phases to run.  A :class:`Phase` is one call into the repository's
    public API; its host time is the phase's wall time.
``check(inputs, sizes, results)``
    The oracle: closed-form expectations computed here, independently
    of the stack, compared with what the ranks returned.
``accuracy(sizes)`` (``paper_report`` only)
    Once per child, outside the timed reps: the 15 paper-vs-measured
    quantities behind ``paper_mape_pct``.

Workload names and op definitions are permanent (later issues cite
them); sizes may only change together with a re-measured record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.bench import figures
from repro.bench.raw_madeleine import raw_madeleine_pingpong
from repro.cluster.config import (
    multirail_smp_cluster,
    paper_cluster,
    two_node_cluster,
)
from repro.cluster.session import MPIWorld
from repro.faults import lossy_plan
from repro.mpi.reduce_ops import SUM
from repro.runner import Runner
from repro.sim import CPU, Engine, EngineConfig, Mailbox, charge, sleep, wait
from repro.workloads import get as get_registered
from repro.workloads.ml_training import gradient_buckets, model_layers


@dataclass
class PhaseResult:
    """What one phase produced: rank results for the oracle, the virtual
    time it took and how many ops (see each workload) it completed."""

    results: Any
    virtual_ns: int
    ops: int


@dataclass
class Phase:
    """One timed call into the repository.  ``engine``/``cpus``/
    ``metrics`` are where the traced pass reads the public counters."""

    name: str
    run: Callable[[], PhaseResult]
    engine: Engine | None = None
    cpus: list = field(default_factory=list)
    metrics: Any = None
    #: "mpi" phases go through the full MPI stack, "raw" through
    #: Madeleine alone — the host-time analogue of the paper's §5.4.
    kind: str = "mpi"


@dataclass
class Check:
    """Oracle verdict for one rep: ops checked, ops wrong, why."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


@dataclass
class Accuracy:
    """Paper-vs-measured summary (``paper_report``)."""

    check: Check
    mape_pct: float
    #: network -> 4 B ch_mad latency minus 4 B raw Madeleine latency (us).
    overhead_us: dict[str, float]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ledger/{workload}/{seed}")


def mpi_phase(name: str, config, program, ops: int, max_events: int,
              engine_config: EngineConfig) -> Phase:
    """A phase that runs ``program`` on a freshly built world.

    ``max_events`` is the hang guard: a livelocked world raises
    :class:`~repro.errors.DeadlockError` with the wait-for-graph
    diagnosis instead of spinning until the child's wall timeout.
    """
    world = MPIWorld(config, engine_config=engine_config)

    def run() -> PhaseResult:
        results = world.run(program, max_events=max_events)
        return PhaseResult(results, world.engine.now, ops)

    return Phase(name, run, engine=world.engine,
                 cpus=[env.process.runtime.cpu for env in world.envs],
                 metrics=world.engine.instruments.metrics)


class Workload:
    """Base: subclasses set ``name``/``why``/``sizes``/``smoke`` and
    implement ``generate``/``build``/``check``."""

    name = ""
    why = ""
    #: What one op is (the numerator of ``ops_per_s``).
    op = "application-level message delivered"
    sizes: dict[str, Any] = {}
    smoke: dict[str, Any] = {}

    def generate(self, seed: int, sizes: dict) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any, sizes: dict,
              engine_config: EngineConfig) -> list[Phase]:
        raise NotImplementedError

    def check(self, inputs: Any, sizes: dict,
              results: dict[str, PhaseResult]) -> Check:
        raise NotImplementedError

    def digest(self, results: dict[str, PhaseResult]) -> str | None:
        """A digest that must be equal across reps (None: the oracle
        already pins every result)."""
        return None

    def accuracy(self, sizes: dict) -> Accuracy | None:
        return None


# ---------------------------------------------------------------------------
# engine_raw — repro.sim only
# ---------------------------------------------------------------------------

class EngineRaw(Workload):
    name = "engine_raw"
    why = ("repro.sim alone (callback chains, coroutine hand-offs, "
           "cancelled timers): the floor; a change above sim/ must not "
           "move it")
    op = "engine event executed"
    sizes = {"chains": 4, "ticks": 60_000, "cpus": 4, "tokens": 8,
             "laps": 1_500}
    smoke = {"chains": 2, "ticks": 2_000, "cpus": 4, "tokens": 4,
             "laps": 50}

    def generate(self, seed, sizes):
        rng = _rng(self.name, seed)
        delays = [[rng.randrange(1, 200) for _ in range(sizes["ticks"])]
                  for _ in range(sizes["chains"])]
        # (charge, sleep) per hand-off, per CPU.
        hops = sizes["tokens"] * sizes["laps"]
        work = [[(rng.randrange(50, 500), rng.randrange(0, 300))
                 for _ in range(hops)] for _ in range(sizes["cpus"])]
        return {"delays": delays, "work": work}

    def build(self, inputs, sizes, engine_config):
        engine = Engine(config=engine_config)
        cpus = [CPU(engine, name=f"raw{i}") for i in range(sizes["cpus"])]
        boxes = [Mailbox(name=f"box{i}") for i in range(sizes["cpus"])]
        chain_end = [None] * sizes["chains"]
        fired: list[int] = []
        done: list[int] = []
        last, tokens = len(cpus) - 1, sizes["tokens"]

        def tick(chain: int, index: int, timer) -> None:
            # A retransmit-style timer: armed every tick, cancelled by
            # the next one, so none may ever fire (lazy cancel path).
            if timer is not None:
                timer.cancel()
            delays = inputs["delays"][chain]
            if index + 1 < len(delays):
                timer = engine.schedule(10**9, fired.append, index)
                engine.schedule(delays[index + 1], tick, chain, index + 1,
                                timer)
            else:
                chain_end[chain] = (index + 1, engine.now)

        def worker(me: int):
            inbox, outbox = boxes[me], boxes[(me + 1) % len(boxes)]
            work = inputs["work"][me]
            for hop, (busy, pause) in enumerate(work):
                item = yield wait(inbox)
                yield charge(busy)
                yield sleep(pause)
                if me == last and hop >= len(work) - tokens:
                    done.append(item + 1)      # final lap: token retires
                else:
                    outbox.post(item + 1)

        def run() -> PhaseResult:
            for chain, delays in enumerate(inputs["delays"]):
                engine.schedule(delays[0], tick, chain, 0, None)
            for me, cpu in enumerate(cpus):
                cpu.spawn(worker(me), name=f"worker{me}")
            for _ in range(tokens):
                boxes[0].post(0)
            engine.run()
            results = {"chain_end": chain_end, "fired": fired,
                       "tokens": done,
                       "busy": [cpu.busy_time for cpu in cpus]}
            return PhaseResult(results, engine.now, engine.events_executed)

        return [Phase("engine", run, engine=engine, cpus=cpus,
                      metrics=engine.instruments.metrics, kind="sim")]

    def check(self, inputs, sizes, results):
        out = results["engine"].results
        check = Check()
        for chain, delays in enumerate(inputs["delays"]):
            check.expect(out["chain_end"][chain] == (len(delays), sum(delays)),
                         f"chain {chain} ended at {out['chain_end'][chain]}, "
                         f"expected {(len(delays), sum(delays))}")
        check.expect(out["fired"] == [],
                     f"{len(out['fired'])} cancelled timers fired")
        hops_per_token = sizes["cpus"] * sizes["laps"]
        check.expect(out["tokens"] == [hops_per_token] * sizes["tokens"],
                     f"tokens {out['tokens'][:4]}.. expected "
                     f"{sizes['tokens']} x {hops_per_token}")
        for me, work in enumerate(inputs["work"]):
            expected = sum(busy for busy, _ in work)
            check.expect(out["busy"][me] == expected,
                         f"cpu {me} busy {out['busy'][me]} ns, expected "
                         f"{expected}")
        return check


# ---------------------------------------------------------------------------
# p2p_eager / p2p_bulk — two-node ping-pong through the full stack
# ---------------------------------------------------------------------------

def _pingpong_program(plan: list[tuple[int, int, int]]):
    """Rank 0 sends ``(nonce, size, i)`` tokens and gets them echoed by
    rank 1; ``plan`` is ``(size, round_trips, nonce)`` per message size."""

    def program(mpi):
        comm = mpi.comm_world
        echoed = []
        for tag, (size, round_trips, nonce) in enumerate(plan):
            for i in range(round_trips):
                if comm.rank == 0:
                    yield from comm.send((nonce, size, i), dest=1, tag=tag,
                                         size=size)
                    data, status = yield from comm.recv(source=1, tag=tag,
                                                        size=size)
                else:
                    data, status = yield from comm.recv(source=0, tag=tag,
                                                        size=size)
                    yield from comm.send(data, dest=0, tag=tag, size=size)
                echoed.append((data, status.count))
        return echoed

    return program


def _pingpong_expected(plan) -> list:
    """What either rank must have seen: the token (``None`` for a
    0-byte message, which carries no data) and the declared size."""
    return [((nonce, size, i) if size else None, size)
            for size, round_trips, nonce in plan
            for i in range(round_trips)]


def _check_pingpong(check: Check, phase: str, plan, result: PhaseResult):
    expected = _pingpong_expected(plan)
    for rank, echoed in enumerate(result.results):
        check.expect(echoed == expected,
                     f"{phase}: rank {rank} echoed {len(echoed)} messages, "
                     f"{sum(a != b for a, b in zip(echoed, expected))} wrong")


class P2PEager(Workload):
    name = "p2p_eager"
    why = ("small-message ping-pong on sisci, bip, tcp, then raw "
           "Madeleine: per-message fixed cost of every stack layer "
           "(~45 % of host time above sim/)")
    networks = ("sisci", "bip", "tcp")
    # tcp costs twice the host time per message and 90 % of it is
    # polling in sim/ and marcel/, so it gets fewer round trips: the
    # workload is here for the stack's share, p2p_bulk for the poller's.
    sizes = {"bytes": (0, 4, 256, 1024), "raw_round_trips": 150,
             "round_trips": {"sisci": 200, "bip": 200, "tcp": 75}}
    smoke = {"bytes": (0, 4, 256, 1024), "raw_round_trips": 4,
             "round_trips": {"sisci": 4, "bip": 4, "tcp": 4}}

    def generate(self, seed, sizes):
        rng = _rng(self.name, seed)
        return {net: [(size, sizes["round_trips"][net], rng.getrandbits(32))
                      for size in sizes["bytes"]]
                for net in self.networks}

    def build(self, inputs, sizes, engine_config):
        phases = []
        for net in self.networks:
            plan = inputs[net]
            messages = 2 * sum(rt for _, rt, _ in plan)
            phases.append(mpi_phase(
                net, two_node_cluster(networks=(net,)),
                _pingpong_program(plan), ops=messages,
                max_events=2_000 * messages, engine_config=engine_config))

        def raw() -> PhaseResult:
            # Builds its own session: the public entry point takes no
            # engine, so this phase has no counters in the traced pass.
            reps = sizes["raw_round_trips"]
            out = {(net, size): raw_madeleine_pingpong(net, size, reps=reps,
                                                       warmup=0)
                   for net in self.networks for size in sizes["bytes"]}
            virtual = sum(2 * r.reps * r.mean_one_way_ns for r in out.values())
            return PhaseResult(out, round(virtual), 2 * reps * len(out))

        phases.append(Phase("raw", raw, kind="raw"))
        return phases

    def check(self, inputs, sizes, results):
        check = Check()
        for net in self.networks:
            _check_pingpong(check, net, inputs[net], results[net])
        raw = results["raw"].results
        for net in self.networks:
            latencies = [raw[net, size].one_way_ns for size in sizes["bytes"]]
            check.expect(
                all(raw[net, size].reps == sizes["raw_round_trips"]
                    for size in sizes["bytes"])
                and 0 < latencies[0] and latencies == sorted(latencies),
                f"raw {net}: latencies {latencies} not positive/monotone")
        return check


class P2PBulk(Workload):
    name = "p2p_bulk"
    why = ("64 KiB eager on tcp (88 % of host time in sim+marcel) and "
           "1 MiB rendezvous on sisci/bip, RDMA on ib: a per-message "
           "stack optimisation must not move it")
    #: phase -> (network, message bytes)
    layout = {"tcp": ("tcp", 64 * 1024), "sisci": ("sisci", 1 << 20),
              "bip": ("bip", 1 << 20), "ib": ("ib", 1 << 20)}
    sizes = {"round_trips": {"tcp": 40, "sisci": 250, "bip": 250, "ib": 250}}
    smoke = {"round_trips": {"tcp": 2, "sisci": 3, "bip": 3, "ib": 3}}

    def generate(self, seed, sizes):
        rng = _rng(self.name, seed)
        return {phase: [(nbytes, sizes["round_trips"][phase],
                         rng.getrandbits(32))]
                for phase, (_, nbytes) in self.layout.items()}

    def build(self, inputs, sizes, engine_config):
        phases = []
        for phase, (net, _) in self.layout.items():
            plan = inputs[phase]
            messages = 2 * plan[0][1]
            config = two_node_cluster(networks=(net,))
            config.rdma = True
            phases.append(mpi_phase(
                phase, config, _pingpong_program(plan), ops=messages,
                max_events=20_000 * messages, engine_config=engine_config))
        return phases

    def check(self, inputs, sizes, results):
        check = Check()
        for phase in self.layout:
            _check_pingpong(check, phase, inputs[phase], results[phase])
        return check


# ---------------------------------------------------------------------------
# lossy_ring — reliable transport under 2 % loss
# ---------------------------------------------------------------------------

class LossyRing(Workload):
    name = "lossy_ring"
    why = ("4-rank sendrecv ring under 2 % loss on both fabrics: the "
           "only workload with retransmits, duplicate suppression and "
           "timer arm/cancel")
    sizes = {"ranks": 4, "bytes": (64, 1024, 16 * 1024, 100_000),
             "rounds": 100, "drop_rate": 0.02}
    smoke = {"ranks": 4, "bytes": (64, 1024, 16 * 1024, 100_000),
             "rounds": 3, "drop_rate": 0.02}
    _STRIDE = 7919

    def generate(self, seed, sizes):
        rng = _rng(self.name, seed)
        return {"fault_seed": rng.getrandbits(31),
                "nonces": [rng.getrandbits(32) for _ in sizes["bytes"]]}

    def build(self, inputs, sizes, engine_config):
        config = paper_cluster(nodes=sizes["ranks"],
                               networks=("sisci", "tcp"))
        config.fault_plan = lossy_plan(sizes["drop_rate"],
                                       fabrics=("sisci", "tcp"),
                                       seed=inputs["fault_seed"])
        rounds, stride = sizes["rounds"], self._STRIDE
        plan = list(zip(sizes["bytes"], inputs["nonces"]))

        def program(mpi):
            comm = mpi.comm_world
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            total = 0
            for tag, (size, nonce) in enumerate(plan):
                for r in range(rounds):
                    data, status = yield from comm.sendrecv(
                        nonce + comm.rank * stride + r, dest=right,
                        sendtag=tag, source=left, recvtag=tag, size=size,
                        recvsize=size)
                    total += data + status.count
            return total

        messages = sizes["ranks"] * len(plan) * rounds
        return [mpi_phase("ring", config, program, ops=messages,
                          max_events=50_000 * messages,
                          engine_config=engine_config)]

    def check(self, inputs, sizes, results):
        check = Check()
        rounds, n = sizes["rounds"], sizes["ranks"]
        for rank, total in enumerate(results["ring"].results):
            left = (rank - 1) % n
            expected = sum(
                rounds * (nonce + left * self._STRIDE + size)
                + rounds * (rounds - 1) // 2
                for size, nonce in zip(sizes["bytes"], inputs["nonces"]))
            check.expect(total == expected,
                         f"rank {rank} ring checksum {total} != {expected}")
        return check


# ---------------------------------------------------------------------------
# scale_1024 — 1024 ranks, mostly idle
# ---------------------------------------------------------------------------

class Scale1024(Workload):
    name = "scale_1024"
    why = ("1024 ranks, mostly idle: neighbour exchange then one "
           "allreduce; where world build time, peak RSS and GC over a "
           "large heap matter")
    op = ("application-level message delivered (an allreduce counts one "
          "per rank)")
    # The allreduce uses the default algorithm: the first "hier"
    # collective on a 1024-rank communicator costs 4.3 s of host time
    # (per-rank O(ranks) loops in hier_comms/split_type plus the GC
    # passes they trigger over a 129 MB heap), which made a rep 4.7 s
    # and its run-to-run spread 5-8 %.  ml_training keeps "hier" timed.
    sizes = {"nodes": 256, "processes_per_node": 4, "rounds": 6,
             "allreduce": None}
    smoke = {"nodes": 8, "processes_per_node": 4, "rounds": 1,
             "allreduce": None}

    def generate(self, seed, sizes):
        return {"nonce": _rng(self.name, seed).getrandbits(20)}

    def build(self, inputs, sizes, engine_config):
        config = multirail_smp_cluster(sizes["nodes"],
                                       sizes["processes_per_node"], rails=1)
        rounds, nonce = sizes["rounds"], inputs["nonce"]
        algorithm = sizes["allreduce"]

        def program(mpi):
            comm = mpi.comm_world
            rank, size = comm.rank, comm.size
            right, left = (rank + 1) % size, (rank - 1) % size
            token, seen = nonce + rank, 0
            for _ in range(rounds):
                # Even ranks send first, odd ranks receive first: the
                # scaleperf wire pattern (eager either way).
                if rank % 2 == 0:
                    yield from comm.send(token, dest=right, tag=1, size=64)
                    data, _ = yield from comm.recv(source=left, tag=1)
                    seen += data
                    yield from comm.send(token, dest=left, tag=2, size=64)
                    data, _ = yield from comm.recv(source=right, tag=2)
                    seen += data
                else:
                    data, _ = yield from comm.recv(source=left, tag=1)
                    seen += data
                    yield from comm.send(token, dest=right, tag=1, size=64)
                    data, _ = yield from comm.recv(source=right, tag=2)
                    seen += data
                    yield from comm.send(token, dest=left, tag=2, size=64)
            total = yield from comm.allreduce(token, SUM, algorithm=algorithm)
            return seen, total

        ranks = config.world_size
        return [mpi_phase("world", config, program,
                          ops=ranks * (2 * rounds + 1),
                          max_events=4_000 * ranks * (rounds + 1),
                          engine_config=engine_config)]

    def check(self, inputs, sizes, results):
        check = Check()
        ranks = sizes["nodes"] * sizes["processes_per_node"]
        nonce, rounds = inputs["nonce"], sizes["rounds"]
        total = ranks * nonce + ranks * (ranks - 1) // 2
        for rank, got in enumerate(results["world"].results):
            left, right = (rank - 1) % ranks, (rank + 1) % ranks
            expected = (rounds * (2 * nonce + left + right), total)
            check.expect(got == expected,
                         f"rank {rank} returned {got}, expected {expected}")
        return check


# ---------------------------------------------------------------------------
# ml_training — the registry's application-shaped workload
# ---------------------------------------------------------------------------

class MLTraining(Workload):
    name = "ml_training"
    why = ("registry workload ml_training, hier collectives, overlap "
           "on, 2 rails: mpi.coll + numpy buffers + overlapped temp "
           "threads, explained by layer")
    op = "collective call completed by one rank (bcast or allreduce)"
    # The model is the registry's seed-0 model at every ledger seed:
    # layer sizes are log-normal in the workload seed, so the bytes
    # reduced vary by tens of percent from one seed to the next, far
    # beyond the wall-clock bounds.
    sizes = {"model_seed": 0,
             "params": {"ranks": 128, "processes_per_node": 4, "rails": 2,
                        "algorithm": "hier", "overlap": True, "steps": 2}}
    smoke = {"model_seed": 0,
             "params": {"ranks": 8, "processes_per_node": 2, "rails": 2,
                        "algorithm": "hier", "overlap": True, "steps": 1}}

    def generate(self, seed, sizes):
        workload = get_registered(self.name)
        params = workload.resolve(sizes["params"])
        layers = model_layers(sizes["model_seed"], params["layers"])
        buckets = gradient_buckets(layers, params["bucket_kib"] * 1024)
        return {"params": params, "layers": layers, "buckets": buckets}

    def build(self, inputs, sizes, engine_config):
        workload = get_registered(self.name)
        config, program = workload.instantiate(sizes["model_seed"],
                                               sizes["params"])
        params = inputs["params"]
        ops = params["ranks"] * params["steps"] * (1 + len(inputs["buckets"]))
        return [mpi_phase("train", config, program, ops=ops,
                          max_events=3_000 * ops,
                          engine_config=engine_config)]

    def check(self, inputs, sizes, results):
        import numpy as np

        check = Check()
        params, layers = inputs["params"], inputs["layers"]
        ranks = np.arange(params["ranks"], dtype=np.float64)[:, None]
        checksums = []
        for step in range(params["steps"]):
            step_sum = 0
            for index, bucket in enumerate(inputs["buckets"]):
                count = sum(layers[layer] for layer in bucket) // 8
                base = np.arange(count, dtype=np.float64)[None, :]
                grads = (base * 31 + ranks * 7 + step * 13 + index * 3) % 1001.0
                step_sum += int(grads.sum())
            checksums.append((step, step + 1, step_sum))
        expected = (sum(layers), tuple(len(b) for b in inputs["buckets"]),
                    tuple(checksums))
        for rank, got in enumerate(results["train"].results):
            check.expect(got == expected,
                         f"rank {rank} checksums differ from the closed form")
        return check

    def digest(self, results: dict[str, PhaseResult]) -> str:
        """``Workload.result_digest`` of the registry entry — must be
        equal across reps."""
        return get_registered(self.name).result_digest(
            results["train"].results)


# ---------------------------------------------------------------------------
# paper_report — the user journey
# ---------------------------------------------------------------------------

class PaperReport(Workload):
    name = "paper_report"
    why = ("the user journey: Table 1 and Figures 6-9 of `python -m repro "
           "report` through Runner(workers=1), 161 jobs; carries the "
           "paper-accuracy check")
    op = "runner job run"
    plans = (figures.figure6_plan, figures.figure7_plan,
             figures.figure8_plan, figures.figure9_plan)
    # figure_sizes None = the paper's grids; smoke skips the accuracy
    # step, which cannot be made smaller than Table 2 is.
    sizes = {"figure_sizes": None, "accuracy": True}
    smoke = {"figure_sizes": (4, 1024), "accuracy": False}

    def generate(self, seed, sizes):
        # The report has no free inputs: the paper fixes every size.
        return {"plans": [plan(sizes["figure_sizes"]) for plan in self.plans]}

    def build(self, inputs, sizes, engine_config):
        # One runner for the whole report, as `python -m repro report`
        # has; one phase per table/figure so the trace tells them apart.
        # Virtual time is a checksum — every measured one-way latency,
        # in integer ns — because the jobs' engines are not reachable
        # through the runner.
        runner = Runner(workers=1, cache=None)

        def jobs_done() -> int:
            return runner.metrics.value("runner.jobs", status="ok")

        def table1() -> PhaseResult:
            before = jobs_done()
            checks = figures.table1_checks(runner)
            virtual = sum(round(c.measured * 1000) for c in checks
                          if c.quantity.endswith("latency_us"))
            return PhaseResult(checks, virtual, jobs_done() - before)

        def figure(plan) -> PhaseResult:
            before = jobs_done()
            fig = figures.build_figure(plan, runner)
            virtual = sum(round(lat * 1000) for series in fig.series.values()
                          for lat in series.latency_us)
            return PhaseResult(fig, virtual, jobs_done() - before)

        phases = [Phase("table1", table1, metrics=runner.metrics, kind="jobs")]
        phases += [Phase(plan.name, partial(figure, plan), kind="jobs")
                   for plan in inputs["plans"]]
        return phases

    def check(self, inputs, sizes, results):
        check = Check()
        for c in results["table1"].results:
            check.expect(c.ok, f"Table 1 {c.quantity}: measured "
                         f"{c.measured:.2f} vs paper {c.paper:g} DEVIATES")
        for plan in inputs["plans"]:
            fig = results[plan.name].results
            raw = fig.series.get("raw_Madeleine")
            mad = fig.series.get("ch_mad")
            for label, series in fig.series.items():
                check.expect(
                    list(series.sizes) == list(plan.sizes)
                    and all(lat > 0 for lat in series.latency_us),
                    f"{plan.name}/{label}: wrong sizes or a non-positive "
                    "latency")
            if raw is not None and mad is not None:
                # §5.4: ch_mad adds overhead to raw Madeleine, never
                # removes any.
                check.expect(
                    all(m >= r for m, r in zip(mad.latency_us,
                                               raw.latency_us)),
                    f"{plan.name}: ch_mad faster than raw Madeleine")
        return check

    def accuracy(self, sizes):
        if not sizes["accuracy"]:
            return None
        # Table 2's 8 MB points alone take ~2.8 s of host time (48 MB
        # through the tcp chunk pipeline, the same path as p2p_bulk's
        # tcp phase), which is why they run once per child here and not
        # in every timed rep.
        runner = Runner(workers=1, cache=None)
        table1 = figures.table1_checks(runner)
        table2 = figures.table2_checks(runner)
        check = Check()
        for c in table1 + table2:
            check.expect(c.ok, f"{c.quantity}: measured {c.measured:.2f} "
                         f"vs paper {c.paper:g} DEVIATES")
        checks = table1 + table2
        mape = 100.0 * sum(abs(c.ratio - 1.0) for c in checks) / len(checks)
        raw = {c.quantity: c.measured for c in table1}
        mad = {c.quantity: c.measured for c in table2}
        overhead = {net: mad[f"{net}.lat4_us"] - raw[f"{net}.latency_us"]
                    for net in ("tcp", "sisci", "bip")}
        return Accuracy(check, mape, overhead)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (EngineRaw(), P2PEager(), P2PBulk(), LossyRing(),
                        Scale1024(), MLTraining(), PaperReport())
}
