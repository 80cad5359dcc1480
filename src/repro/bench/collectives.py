"""Collective-algorithm benchmarks: flat vs hierarchical vs multi-lane.

One :func:`collective_bench` call times one ``(operation, algorithm)``
pair on one multirail SMP cluster, in *virtual* nanoseconds — the
simulator is deterministic, so the numbers are exact and reproducible,
and regression guards can compare them bit for bit.

The measured quantity is the barrier-to-barrier span of the operation:
every rank barriers, the operation runs, every rank barriers again; the
cost is the maximum span over ranks.  Setup collectives (the node/leader
split for ``hier``, the lane dups for ``multilane``) happen during the
warmup repetitions, so the steady-state cost is what gets reported —
matching how these algorithms amortize in applications.

``python -m repro`` reaches this through the ``coll_bench`` runner
executor (:mod:`repro.workloads.executors`); ``benchmarks/perf/guard.py``
pins its flat/hier/multilane sweep in ``BENCH_guard.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cluster import MPIWorld, multirail_smp_cluster
from repro.errors import ConfigurationError
from repro.mpi.reduce_ops import SUM
from repro.sim.coroutines import now


def collective_bench(operation: str = "allreduce",
                     algorithm: str = "default",
                     ranks: int = 64,
                     processes_per_node: int = 2,
                     rails: int = 2,
                     network: str = "sisci",
                     size: int = 65536,
                     reps: int = 3,
                     warmup: int = 1) -> dict[str, Any]:
    """Time one collective algorithm; returns a JSON-safe record.

    ``size`` is the payload in bytes (float64 elements underneath);
    ``ranks`` must divide evenly into ``processes_per_node``-rank nodes.
    """
    if ranks % processes_per_node:
        raise ConfigurationError(
            f"ranks={ranks} not divisible by "
            f"processes_per_node={processes_per_node}")
    config = multirail_smp_cluster(nodes=ranks // processes_per_node,
                                   processes_per_node=processes_per_node,
                                   rails=rails, network=network)
    count = max(1, size // 8)

    def program(mpi):
        comm = mpi.comm_world
        data = np.full(count, float(comm.rank + 1), dtype=np.float64)
        spans = []
        result = None
        for rep in range(warmup + reps):
            yield from comm.barrier()
            start = yield now()
            if operation == "allreduce":
                result = yield from comm.allreduce(data, SUM,
                                                   algorithm=algorithm)
            elif operation == "bcast":
                obj = data if comm.rank == 0 else None
                result = yield from comm.bcast(obj, root=0,
                                               algorithm=algorithm)
            elif operation == "allgather":
                result = yield from comm.allgather(data[:count // comm.size
                                                        or 1],
                                                   algorithm=algorithm)
            elif operation == "barrier":
                yield from comm.barrier(algorithm=algorithm)
                result = True
            else:
                raise ConfigurationError(
                    f"collective_bench: unsupported operation {operation!r}")
            yield from comm.barrier()
            stop = yield now()
            if rep >= warmup:
                spans.append(stop - start)
        if operation == "allreduce":
            checksum = float(np.asarray(result).reshape(-1)[0])
        elif operation == "bcast":
            checksum = float(np.asarray(result).reshape(-1)[0])
        elif operation == "allgather":
            checksum = float(len(result))
        else:
            checksum = 1.0
        return (tuple(spans), checksum)

    results = MPIWorld(config).run(program)
    per_rep = [max(rank_spans[rep] for rank_spans, _ in results)
               for rep in range(reps)]
    return {
        "operation": operation,
        "algorithm": algorithm,
        "ranks": ranks,
        "processes_per_node": processes_per_node,
        "rails": rails,
        "network": network,
        "size": size,
        "reps": reps,
        "per_rep_ns": per_rep,
        "mean_ns": sum(per_rep) / len(per_rep),
        "checksum": results[0][1],
    }
