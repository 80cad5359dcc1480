"""Multi-lane collectives (Träff-style decomposition across rails).

A cluster whose nodes carry several boards — rails ``"sisci"``,
``"sisci#1"``, ... — exposes independent physical lanes that flat
collectives leave idle: ch_mad's channel selection always picks the
first live preferred rail.  A multi-lane collective instead

1. agrees on a lane width (the minimum live rail count over the
   communicator, so every pair of ranks can honour it),
2. duplicates the communicator once per lane (distinct contexts keep
   each lane's tag sequence and matching isolated),
3. pins lane *i*'s contexts to rail ``i`` in every rank's ch_mad device
   (:meth:`~repro.mpi.devices.ch_mad.device.ChMadDevice.assign_lane`),
4. splits the payload into near-equal pieces and runs one flat
   sub-collective per lane *concurrently* (temporary Marcel threads,
   the §4.2.3 mechanism), then reassembles.

Payloads must be splittable — numpy arrays (and byte strings for
bcast/allgather).  Anything else, a single lane, or an empty split falls
back to the flat default, so ``algorithm="multilane"`` is always safe to
request.  The lane comms are cached per communicator; the first
multi-lane call pays the (collective) setup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.mpi.reduce_ops import MIN, Op
from repro.sim.coroutines import wait

from repro.mpi.coll import flat as _flat
from repro.mpi.coll.registry import register

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


def lane_comms(comm: "Communicator") -> Generator:
    """Build (or fetch) the per-lane duplicate communicators.

    Collective on first use.  The lane width is agreed with a MIN
    allreduce of each rank's live rail count, so heterogeneous worlds
    (nodes with different board sets) settle on what everyone has.
    """
    cached = getattr(comm, "_lane_cache", None)
    if cached is not None:
        return cached
    device = comm.env.inter_device
    local = device.lane_count() if hasattr(device, "lane_count") else 1
    width = yield from _flat.allreduce(comm, int(local), MIN)
    width = max(1, int(width))
    lanes = []
    for index in range(width):
        lane = yield from comm.dup()
        if hasattr(device, "assign_lane"):
            device.assign_lane((lane.context_id, lane.collective_context),
                               index)
        lanes.append(lane)
    comm._lane_cache = lanes
    comm._derived_comms += tuple(lanes)
    return lanes


def _split_payload(obj: Any, width: int) -> list[Any] | None:
    """Per-lane self-describing pieces of ``obj``, or None if unsplittable.

    Lane 0's piece carries the reassembly metadata (shape/dtype for
    arrays); every piece is an ordinary Python object, so the existing
    payload machinery (size inference, cloning) applies unchanged.
    """
    if width < 2:
        return None
    if isinstance(obj, np.ndarray) and obj.size >= width:
        flat = obj.reshape(-1)
        parts = np.array_split(flat, width)
        pieces: list[Any] = [("nd", obj.shape, str(obj.dtype), parts[0])]
        pieces += [("part", part) for part in parts[1:]]
        return pieces
    if isinstance(obj, (bytes, bytearray)) and len(obj) >= width:
        bounds = np.linspace(0, len(obj), width + 1).astype(int)
        return [("bytes", bytes(obj[bounds[i]:bounds[i + 1]]))
                for i in range(width)]
    return None


def _assemble(pieces: list[Any]) -> Any:
    kind = pieces[0][0]
    if kind == "nd":
        _, shape, dtype, first = pieces[0]
        flat = np.concatenate(
            [np.asarray(first).reshape(-1)]
            + [np.asarray(piece[1]).reshape(-1) for piece in pieces[1:]])
        return flat.reshape(shape).astype(np.dtype(dtype), copy=False)
    if kind == "bytes":
        return b"".join(piece[1] for piece in pieces)
    return pieces[0][1]  # ("raw", obj): lane 0 carried it whole


def _run_lanes(comm: "Communicator", generators: list) -> Generator:
    """Run one sub-collective per lane concurrently; list of results."""
    runtime = comm.env.process.runtime
    tasks = [runtime.spawn_temporary(gen, name=f"coll-lane{i}")
             for i, gen in enumerate(generators)]
    results = []
    for task in tasks:
        result = yield wait(task)
        results.append(result)
    return results


def _lane_op(fn, lane, *args) -> Generator:
    result = yield from fn(lane, *args)
    return result


def allreduce_multilane(comm: "Communicator", obj: Any, op: Op) -> Generator:
    """Elementwise array allreduce, one near-equal slice per rail."""
    lanes = yield from lane_comms(comm)
    if (len(lanes) < 2 or not isinstance(obj, np.ndarray)
            or obj.size < len(lanes)):
        result = yield from _flat.allreduce(comm, obj, op)
        return result
    parts = np.array_split(obj.reshape(-1), len(lanes))
    reduced = yield from _run_lanes(comm, [
        _lane_op(_flat.allreduce, lane, part, op)
        for lane, part in zip(lanes, parts)])
    flat = np.concatenate([np.asarray(part).reshape(-1) for part in reduced])
    return flat.reshape(obj.shape)


def bcast_multilane(comm: "Communicator", obj: Any,
                    root: int = 0) -> Generator:
    """Broadcast one payload slice per rail, concurrently."""
    _flat._check_root(comm, root)
    lanes = yield from lane_comms(comm)
    width = len(lanes)
    if width < 2:
        result = yield from _flat.bcast(comm, obj, root)
        return result
    if comm.rank == root:
        pieces = _split_payload(obj, width)
        if pieces is None:  # unsplittable: lane 0 carries it whole
            pieces = [("raw", obj)] + [("none",)] * (width - 1)
    else:
        pieces = [None] * width
    received = yield from _run_lanes(comm, [
        _lane_op(_flat.bcast, lane, piece, root)
        for lane, piece in zip(lanes, pieces)])
    if comm.rank == root:
        return obj
    return _assemble(received)


def allgather_multilane(comm: "Communicator", obj: Any) -> Generator:
    """Per-rail allgathers of payload slices, reassembled per rank.

    Each rank splits (or not) its own contribution independently — the
    pieces are self-describing, so no cross-rank agreement is needed
    beyond the shared lane width.
    """
    lanes = yield from lane_comms(comm)
    width = len(lanes)
    if width < 2:
        result = yield from _flat.allgather(comm, obj)
        return result
    pieces = _split_payload(obj, width)
    if pieces is None:
        pieces = [("raw", obj)] + [("none",)] * (width - 1)
    per_lane = yield from _run_lanes(comm, [
        _lane_op(_flat.allgather, lane, piece)
        for lane, piece in zip(lanes, pieces)])
    return [_assemble([per_lane[lane][rank] for lane in range(width)])
            for rank in range(comm.size)]


register("allreduce", "multilane", allreduce_multilane,
         "array slices allreduced concurrently, one rail per lane")
register("bcast", "multilane", bcast_multilane,
         "payload slices broadcast concurrently, one rail per lane")
register("allgather", "multilane", allgather_multilane,
         "payload slices allgathered concurrently, one rail per lane")
