"""``ml_training`` — data-parallel training in the chainermn mold.

Each optimizer step is the communication shape of synchronous
data-parallel SGD:

1. the root broadcasts the model state (every step, the multi-node
   optimizer's defensive re-sync — ``algorithm="hier"`` by default, so
   the intra-node/leader decomposition from PR 6 carries it);
2. the backward pass sweeps the layers in reverse, *bucketing*
   gradients the way DDP/chainermn do: layers fill a bucket until it
   exceeds ``bucket_kib``, then the bucket's ``allreduce_grad`` is
   issued;
3. compute and communication **overlap**: each bucket's allreduce runs
   in a temporary Marcel thread (the §4.2.3 mechanism, same as the
   multi-lane collectives) on a dedicated ``dup()``-ed gradient
   communicator while the main thread charges the *next* bucket's
   backward compute.  At most one allreduce is in flight, so gradient
   matching stays ordered;
4. the optimizer update charges CPU proportional to the model size.

Layer sizes come from a **log-normal** distribution (the empirical
shape of real model parameter tensors: many small bias/norm tensors, a
few large matmul weights), drawn from the workload seed at build time —
so one seed is one model, whatever the schedule.

Gradients are integer-valued float64 arrays: float summation of
integers this small is exact and associative, so the flat, hierarchical
and multi-lane allreduces must agree **element for element** — which is
what the differential test asserts, and why the per-step checksums in
the result are schedule-independent under the fuzzer.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.cluster.config import multirail_smp_cluster
from repro.errors import ConfigurationError
from repro.mpi.reduce_ops import SUM
from repro.sim.coroutines import charge, wait
from repro.sim.engine import seed_namespace

from repro.workloads.registry import Param, Workload, register

#: Log-normal layer-size distribution (bytes): median 8 KiB, heavy
#: right tail — clamped so every layer stays a sane tensor.
_MEDIAN_BYTES = 8192
_SIGMA = 1.1
_MIN_BYTES, _MAX_BYTES = 256, 262_144


def model_layers(seed: int, layers: int) -> list[int]:
    """The per-layer gradient sizes (bytes) for one workload seed."""
    rng = random.Random(seed_namespace("ml-training", seed))
    sizes = []
    for _ in range(layers):
        size = int(rng.lognormvariate(math.log(_MEDIAN_BYTES), _SIGMA))
        # float64 elements: round to the element grid.
        sizes.append(max(_MIN_BYTES, min(_MAX_BYTES, size)) // 8 * 8)
    return sizes


def gradient_buckets(sizes: list[int], bucket_bytes: int) -> list[list[int]]:
    """Reverse-order (backward-pass) greedy bucketing of layer indices."""
    buckets: list[list[int]] = []
    current: list[int] = []
    filled = 0
    for layer in reversed(range(len(sizes))):
        current.append(layer)
        filled += sizes[layer]
        if filled >= bucket_bytes:
            buckets.append(current)
            current, filled = [], 0
    if current:
        buckets.append(current)
    return buckets


def _grad(count: int, rank: int, step: int, bucket: int) -> np.ndarray:
    """Integer-valued float64 gradient — exact under float summation up
    to well past 512 ranks, so reduction order cannot matter."""
    base = np.arange(count, dtype=np.float64)
    return (base * 31 + rank * 7 + step * 13 + bucket * 3) % 1001.0


def _allreduce_gen(comm, data, op, algorithm):
    result = yield from comm.allreduce(data, op, algorithm=algorithm)
    return result


def _build_ml_training(seed: int, *, ranks: int, processes_per_node: int,
                       rails: int, network: str, layers: int,
                       bucket_kib: int, steps: int, algorithm: str,
                       compute_ns_per_byte: int, overlap: bool):
    if ranks % processes_per_node:
        raise ConfigurationError(
            f"ml_training: ranks={ranks} not divisible by "
            f"processes_per_node={processes_per_node}")
    config = multirail_smp_cluster(nodes=ranks // processes_per_node,
                                   processes_per_node=processes_per_node,
                                   rails=rails, network=network)
    sizes = model_layers(seed, layers)
    buckets = gradient_buckets(sizes, bucket_kib * 1024)
    model_bytes = sum(sizes)

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        runtime = mpi.process.runtime
        # Gradient traffic gets its own contexts: the overlapped
        # allreduce must never interleave with the model bcast's tag
        # sequence on the world communicator.
        grad_comm = yield from comm.dup()
        checksums = []
        for step in range(steps):
            # (1) model state broadcast, every step, from rank 0.
            state = (np.full(model_bytes // 8, float(step + 1))
                     if me == 0 else None)
            state = yield from comm.bcast(state, root=0, algorithm=algorithm)
            version = float(state[0])

            # (2)+(3) backward sweep: charge this bucket's compute, then
            # allreduce it in a temp thread while the next bucket's
            # compute charges — one allreduce in flight at a time.
            pending = None
            reduced = []
            for index, bucket in enumerate(buckets):
                bucket_bytes = sum(sizes[layer] for layer in bucket)
                yield charge(bucket_bytes * compute_ns_per_byte)
                grad = _grad(bucket_bytes // 8, me, step, index)
                if not overlap:
                    total = yield from grad_comm.allreduce(
                        grad, SUM, algorithm=algorithm)
                    reduced.append(total)
                    continue
                if pending is not None:
                    reduced.append((yield wait(pending)))
                pending = runtime.spawn_temporary(
                    _allreduce_gen(grad_comm, grad, SUM, algorithm),
                    name=f"grad-allreduce{index}")
            if pending is not None:
                reduced.append((yield wait(pending)))

            # (4) optimizer update: pure compute over the full model.
            yield charge(model_bytes * compute_ns_per_byte // 4)
            step_sum = sum(int(np.asarray(total).sum()) for total in reduced)
            checksums.append((step, int(version), step_sum))
        yield from comm.barrier()
        return (model_bytes, tuple(len(b) for b in buckets),
                tuple(checksums))

    return config, program


register(Workload(
    "ml_training",
    "data-parallel SGD: per-step model bcast + bucketed gradient "
    "allreduce with compute/communication overlap",
    _build_ml_training,
    params={
        "ranks": Param(8, "world size (divisible by processes_per_node)"),
        "processes_per_node": Param(2, "ranks per SMP node"),
        "rails": Param(2, "network boards per node"),
        "network": Param("sisci", "fabric carrying the inter-node traffic"),
        "layers": Param(12, "model tensor count (log-normal sizes)"),
        "bucket_kib": Param(32, "gradient bucket threshold (KiB)"),
        "steps": Param(3, "optimizer steps"),
        "algorithm": Param("hier", "collective algorithm for bcast + "
                           "allreduce_grad (default: node-aware "
                           "hierarchical)"),
        "compute_ns_per_byte": Param(25, "modelled backward-pass cost"),
        "overlap": Param(True, "overlap bucket compute with the previous "
                         "bucket's allreduce (temp thread)"),
    },
    metrics=("chmad.packets", "mad.bytes", "poll.wakeups"),
    tags=frozenset({"fuzz", "macro"}),
))
