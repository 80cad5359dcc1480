"""One-sided (RMA) benchmarks: Put/Get vs two-sided, RDMA vs packetized.

One :func:`rma_bench` call times one operation at one size on a 2-node
InfiniBand pair, in *virtual* nanoseconds.  The ``rdma`` toggle selects
the transfer machinery underneath the same program: ``True`` is the
zero-copy rendezvous-over-RDMA path (and the true ``rdma_read`` fast
path for gets), ``False`` is the packetized ablation — large messages
chunked through the ch_mad packet state machine.  The acceptance
criterion lives in ``benchmarks/perf/rmaperf.py``: RDMA must beat the
packetized path by >= 1.3x on large messages.

The measured span is barrier-to-completion: both ranks barrier, rank 0
issues the op, the closing fence (or the two-sided receive) completes
it, both ranks barrier again; the cost is the max span over ranks —
the same discipline as :mod:`repro.bench.collectives`, so fence overhead
(count exchange + barrier) is charged identically to every variant.

``python -m repro`` reaches this through the ``rma_bench`` runner
executor (:mod:`repro.workloads.executors`); ``benchmarks/perf/rmaperf.py``
sweeps it and maintains ``BENCH_rma.json``.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.node import ClusterConfig, NodeSpec
from repro.cluster.session import MPIWorld
from repro.errors import ConfigurationError
from repro.sim.coroutines import now
from repro.units import bandwidth_mb_s


def rma_bench(operation: str = "put",
              size: int = 65536,
              rdma: bool = True,
              network: str = "ib",
              reps: int = 3,
              warmup: int = 1) -> dict[str, Any]:
    """Time one RMA (or two-sided reference) transfer; JSON-safe record.

    ``operation`` is ``"put"``, ``"get"`` or ``"two_sided"`` (a plain
    send/recv of the same payload, the classic osu_bw-style reference).
    """
    if operation not in ("put", "get", "two_sided"):
        raise ConfigurationError(
            f"rma_bench: unsupported operation {operation!r}")
    config = ClusterConfig(
        nodes=[NodeSpec("n0", networks=(network,)),
               NodeSpec("n1", networks=(network,))],
        rdma=rdma,
    )
    payload = bytes([0x5A]) * size

    def program(mpi):
        comm = mpi.comm_world
        me = comm.rank
        spans = []
        checksum = 0.0
        if operation == "two_sided":
            for rep in range(warmup + reps):
                yield from comm.barrier()
                start = yield now()
                if me == 0:
                    yield from comm.send(payload, dest=1, tag=1, size=size)
                else:
                    data, _status = yield from comm.recv(source=0, tag=1,
                                                         size=size)
                    checksum = float(data[0]) + len(data)
                yield from comm.barrier()
                stop = yield now()
                if rep >= warmup:
                    spans.append(stop - start)
            return (tuple(spans), checksum)
        win = yield from comm.win_create(size)
        if me == 1:
            win.buffer[:] = 0x5A  # what rank 0's gets read back
        yield from win.fence()
        for rep in range(warmup + reps):
            yield from comm.barrier()
            start = yield now()
            if me == 0:
                if operation == "put":
                    yield from win.put(1, 0, payload)
                else:
                    result = yield from win.get(1, 0, size)
            yield from win.fence()
            stop = yield now()
            if rep >= warmup:
                spans.append(stop - start)
            if me == 0 and operation == "get":
                checksum = float(result.data[0]) + len(result.data)
        if me == 1 and operation == "put":
            checksum = float(win.buffer[0]) + int(win.buffer.sum() // 0x5A)
        yield from win.free()
        return (tuple(spans), checksum)

    results = MPIWorld(config).run(program)
    per_rep = [max(rank_spans[rep] for rank_spans, _ in results)
               for rep in range(reps)]
    mean_ns = sum(per_rep) / len(per_rep)
    return {
        "operation": operation,
        "size": size,
        "rdma": rdma,
        "network": network,
        "reps": reps,
        "per_rep_ns": per_rep,
        "mean_ns": mean_ns,
        "bandwidth_mb_s": bandwidth_mb_s(size, int(mean_ns)),
        "checksum": max(checksum for _spans, checksum in results),
    }
