"""MPI-2 one-sided communication: windows, fence epochs, Put/Get/Accumulate.

The window model follows the MPICH2-over-InfiniBand design (Liu et al.,
see PAPERS.md): a window is a byte buffer exposed by every rank of a
communicator, accessed between ``fence`` calls (active-target
synchronization).  The implementation is layered on the existing ADI:

- Each window dups its communicator; the dup's fresh context isolates
  RMA traffic and doubles as the window id.  Origin-side ops travel as
  ordinary point-to-point messages on a reserved tag, applied by a
  per-rank *agent* daemon (the software-agent fallback of the paper's
  design — the path every network can take).
- On InfiniBand channels ``get`` short-circuits to a true one-sided
  ``rdma_read`` against the target's registered window region: the
  target CPU is never involved, which is the whole point of RDMA.
  Window memory is registered with the HCA at creation time
  (``register_explicit``) and deregistered at ``free`` — the
  registration-leak audit in :mod:`repro.check.checker` holds us to it.
- ``fence`` completes an epoch with the three-step discipline: drain
  this rank's pending gets, alltoall the per-target issued-op counts,
  wait until the local agent has applied everything addressed here,
  then barrier.  The checker shadows the epoch state machine
  (``rma-epoch`` / ``rma-unfenced-completion`` invariants).

Accumulate is SUM over little-endian int64 slots (commutative, so apply
order within an epoch cannot change the result — the property that makes
the randomized RMA tests schedule-independent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.errors import MPIError
from repro.mpi import point2point as _p2p
from repro.mpi.constants import ANY_SOURCE, TAG_UB
from repro.sim.coroutines import charge, wait
from repro.sim.sync import Flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.communicator import Communicator
    from repro.mpi.request import RecvRequest

#: Reserved tag for origin->target RMA op messages on the window's
#: private (dup'd) communicator.  Get replies use tags 1.. so they can
#: never match the agent's wildcard receive.
RMA_OP_TAG = 0

#: Modeled wire overhead of an RMA op descriptor (op code, window id,
#: offset, uid) beyond its payload.
RMA_HEADER_BYTES = 32


class GetResult:
    """Deferred result of :meth:`Win.get` (packetized path).

    MPI one-sided reads complete at the closing fence; ``data`` raises
    until then.  The RDMA fast path fills the result before returning,
    so callers may also read it immediately when they know the path.
    """

    __slots__ = ("_data", "_ready")

    def __init__(self) -> None:
        self._data: bytes | None = None
        self._ready = False

    def _set(self, data: bytes) -> None:
        self._data = data
        self._ready = True

    @property
    def data(self) -> bytes:
        if not self._ready:
            raise MPIError("Win.get result read before the closing fence")
        return self._data


class Win:
    """One MPI window: ``size`` bytes exposed on every rank of a comm.

    Create collectively with :meth:`Communicator.win_create`; destroy
    with :meth:`free`.  All access must happen between :meth:`fence`
    calls.
    """

    def __init__(self, comm: "Communicator", size: int):
        self.comm = comm
        self.size = size
        #: The dup's context id doubles as the window identity — unique
        #: per window per world, identical across ranks.
        self.win_id = comm.context_id
        self.buffer = np.zeros(size, dtype=np.uint8)
        self.freed = False
        self._epoch_open = False
        self._seq = 0                     # op uid counter (this origin)
        self._reply_seq = 0               # get reply-tag counter
        self._issued: dict[int, int] = {}  # target comm rank -> ops sent
        self._pending_gets: list[tuple["RecvRequest", GetResult]] = []
        #: Ops applied locally by the agent vs. the cumulative total the
        #: fences have promised; the fence waits _applied >= _expected.
        self._applied = 0
        self._expected = 0
        self._fence_flag: Flag | None = None
        self._fence_need = 0
        self._stopped = False
        self._agent_request: "RecvRequest | None" = None

    # -- construction / teardown -------------------------------------------

    @classmethod
    def create(cls, comm: "Communicator", size: int) -> Generator:
        """Collective: build a window of ``size`` bytes per rank."""
        if size < 0:
            raise MPIError(f"window size must be >= 0, got {size}")
        wcomm = yield from comm.dup()
        win = cls(wcomm, size)
        env = wcomm.env
        # Pin the window with every RDMA-capable board of this process:
        # remote rdma_read must find the region registered whichever IB
        # rail the reader arrives on.
        for endpoint in win._rdma_endpoints():
            yield from endpoint.register_explicit(("win", win.win_id), size)
            endpoint.expose(("win", win.win_id), win.buffer)
        checker = env.process.engine.checker
        if checker.enabled:
            checker.on_win_create(env.rank, win.win_id)
        env.process.runtime.spawn(
            win._serve(), name=f"rank{env.rank}.win{win.win_id}.agent",
            daemon=True)
        return win

    def free(self) -> Generator:
        """Collective: tear the window down (MPI_Win_free).

        Epochs must be closed (a fence since the last access) — the
        barrier here orders every agent's last apply before teardown.
        """
        self._check_live()
        yield from self.comm.barrier()
        self._stopped = True
        request = self._agent_request
        if request is not None:
            # Withdraw the agent's pending wildcard receive so the
            # finalize leak audit never mistakes it for an application
            # request (the FT control listener uses the same discipline).
            request.cancel()
            self._agent_request = None
        for endpoint in self._rdma_endpoints():
            endpoint.unexpose(("win", self.win_id))
            yield from endpoint.deregister_explicit(("win", self.win_id))
        env = self.comm.env
        checker = env.process.engine.checker
        if checker.enabled:
            checker.on_win_free(env.rank, self.win_id)
        self.freed = True
        self.comm.free()

    def _rdma_endpoints(self):
        return [endpoint
                for endpoint in self.comm.env.process._endpoints.values()
                if hasattr(endpoint, "register_explicit")]

    def _check_live(self) -> None:
        if self.freed:
            raise MPIError(f"operation on freed window {self.win_id}")
        self.comm._check_live()

    # -- synchronization ----------------------------------------------------

    def fence(self) -> Generator:
        """Close the current epoch (if any) and open the next one.

        The first fence only opens access; later fences guarantee that
        every op issued in the closing epoch — by any rank, to any rank —
        is applied before they return (MPI_Win_fence semantics).
        """
        self._check_live()
        env = self.comm.env
        checker = env.process.engine.checker
        if not self._epoch_open:
            if checker.enabled:
                checker.on_win_fence(env.rank, self.win_id)
            yield from self.comm.barrier()
            self._epoch_open = True
            return
        # 1. This origin's reads: a get reply is also the target-side
        #    proof the op was applied, so drain them first.
        for request, result in self._pending_gets:
            data, _status = yield from _p2p.recv_wait(self.comm, request)
            result._set(data)
        self._pending_gets = []
        # 2. Everyone learns how many ops were addressed to them this
        #    epoch (the classic fence count-exchange).
        sent = [self._issued.get(target, 0)
                for target in range(self.comm.size)]
        counts = yield from self.comm.alltoall(sent)
        self._issued = {}
        self._expected += sum(counts)
        # 3. Wait for the local agent to apply them all.  The check and
        #    the arming of the flag are atomic under the cooperative
        #    scheduler, so the agent cannot slip an apply between them.
        while self._applied < self._expected:
            flag = Flag(name=f"win{self.win_id}.fence")
            flag.dep_describe = (
                f"RMA fence: {self._expected - self._applied} op(s) "
                f"outstanding on win {self.win_id}")
            self._fence_need = self._expected
            self._fence_flag = flag
            yield wait(flag)
            self._fence_flag = None
        # 4. Nobody leaves until everybody is drained.
        yield from self.comm.barrier()
        if checker.enabled:
            checker.on_win_fence_complete(env.rank, self.win_id)
            checker.on_win_fence(env.rank, self.win_id)

    # -- origin-side operations --------------------------------------------

    def put(self, target: int, offset: int, data) -> Generator:
        """One-sided write of ``data`` at ``offset`` in ``target``'s window."""
        payload = bytes(data)
        self._check_access(target, offset, len(payload))
        op_uid = self._next_uid()
        self._require_epoch("put", target, op_uid)
        yield from self.comm.send(
            ("put", offset, payload, op_uid), dest=target, tag=RMA_OP_TAG,
            size=len(payload) + RMA_HEADER_BYTES)
        self._issued[target] = self._issued.get(target, 0) + 1

    def accumulate(self, target: int, offset: int, values) -> Generator:
        """One-sided SUM into int64 slots at ``offset`` (must be 8-aligned)."""
        arr = np.ascontiguousarray(np.asarray(values, dtype="<i8"))
        self._check_access(target, offset, arr.nbytes)
        if offset % 8:
            raise MPIError("accumulate offset must be 8-byte aligned")
        op_uid = self._next_uid()
        self._require_epoch("accumulate", target, op_uid)
        yield from self.comm.send(
            ("acc", offset, arr.tobytes(), op_uid), dest=target,
            tag=RMA_OP_TAG, size=arr.nbytes + RMA_HEADER_BYTES)
        self._issued[target] = self._issued.get(target, 0) + 1

    def get(self, target: int, offset: int, nbytes: int) -> Generator:
        """One-sided read of ``nbytes`` at ``offset`` from ``target``.

        Evaluates to a :class:`GetResult` whose ``data`` is valid after
        the closing fence.  On a shared InfiniBand channel this is a
        genuine ``rdma_read`` against the target's registered window —
        no target-side software runs at all.
        """
        self._check_access(target, offset, nbytes)
        op_uid = self._next_uid()
        self._require_epoch("get", target, op_uid)
        env = self.comm.env
        checker = env.process.engine.checker
        result = GetResult()
        path = self._rdma_path(target)
        if path is not None:
            endpoint, remote = path
            ins = env.process.engine.instruments
            if ins.enabled:
                ins.count("rma.rdma_gets", 1, rank=env.rank)
            data = yield from endpoint.rdma_read(
                remote, ("win", self.win_id), offset, nbytes)
            if checker.enabled:
                # One-sided completion: the read IS the apply (no agent,
                # no count in the fence exchange — the origin holds the
                # data before its own fence begins).
                checker.on_rma_apply(env.rank, self.win_id, op_uid)
            result._set(bytes(data))
            return result
        reply_tag = self._next_reply_tag()
        # Post the reply receive BEFORE the request leaves: the target's
        # agent may answer before this thread runs again.
        request = self.comm.irecv(source=target, tag=reply_tag, size=nbytes)
        yield from self.comm.send(
            ("get", offset, nbytes, reply_tag, op_uid), dest=target,
            tag=RMA_OP_TAG, size=RMA_HEADER_BYTES)
        self._issued[target] = self._issued.get(target, 0) + 1
        self._pending_gets.append((request, result))
        return result

    # -- origin-side helpers ------------------------------------------------

    def _next_uid(self) -> str:
        self._seq += 1
        return f"{self.win_id}.{self.comm.env.rank}.{self._seq}"

    def _next_reply_tag(self) -> int:
        self._reply_seq += 1
        return 1 + (self._reply_seq % (TAG_UB - 1))

    def _require_epoch(self, op: str, target: int, op_uid: str) -> None:
        env = self.comm.env
        checker = env.process.engine.checker
        if checker.enabled:
            checker.on_rma_op(env.rank, self.win_id, op,
                              self.comm.group.world_rank(target), op_uid)
        if not self._epoch_open:
            raise MPIError(
                f"RMA {op} outside a fence epoch on win {self.win_id}")

    def _check_access(self, target: int, offset: int, nbytes: int) -> None:
        self._check_live()
        if not 0 <= target < self.comm.size:
            raise MPIError(f"RMA target rank {target} out of range")
        if nbytes < 0 or offset < 0 or offset + nbytes > self.size:
            raise MPIError(
                f"RMA access [{offset}, {offset + nbytes}) outside window "
                f"of {self.size} bytes")

    def _rdma_path(self, target: int):
        """(local endpoint, remote endpoint) for a true RDMA read, if the
        pair shares a live IB channel and the device allows RDMA."""
        env = self.comm.env
        target_world = self.comm.group.world_rank(target)
        if target_world == env.rank:
            return None
        device = env.select_device(target_world)
        if not getattr(device, "rdma_rendezvous", False):
            return None
        direct_port = getattr(device, "direct_port", None)
        if direct_port is None:
            return None
        from repro.networks import base_protocol
        port = direct_port(target_world)
        if port is None or base_protocol(port.channel.protocol) != "ib":
            return None
        endpoint = port.endpoint
        if not hasattr(endpoint, "rdma_read"):
            return None
        remote = port.channel.port(target_world).endpoint
        return endpoint, remote

    # -- the target-side agent ----------------------------------------------

    def _serve(self) -> Generator:
        """Per-rank window agent: applies incoming RMA ops (daemon).

        This is the software-agent path — every op that is not a true
        RDMA read lands here as a point-to-point message on the
        window's private context.
        """
        comm = self.comm
        env = comm.env
        progress = env.progress
        while not self._stopped:
            request = comm.irecv(source=ANY_SOURCE, tag=RMA_OP_TAG)
            self._agent_request = request
            message, status = yield from _p2p.recv_wait(comm, request)
            self._agent_request = None
            if self._stopped or message is None:
                return
            kind, offset = message[0], message[1]
            if kind == "put":
                _, _, payload, op_uid = message
                yield charge(progress.memory.copy_cost(len(payload)))
                self.buffer[offset:offset + len(payload)] = \
                    np.frombuffer(payload, dtype=np.uint8)
                self._applied_one(op_uid)
            elif kind == "acc":
                _, _, payload, op_uid = message
                values = np.frombuffer(payload, dtype="<i8")
                yield charge(progress.memory.copy_cost(len(payload)))
                view = self.buffer[offset:offset + values.nbytes].view("<i8")
                view += values
                self._applied_one(op_uid)
            else:  # "get" request (packetized reply path)
                _, _, nbytes, reply_tag, op_uid = message
                data = bytes(self.buffer[offset:offset + nbytes])
                # Agents are ordinary threads (not pollers): replying
                # with a plain send is legal and keeps the reply in the
                # window's private context.
                yield from comm.send(data, dest=status.source,
                                     tag=reply_tag, size=nbytes)
                self._applied_one(op_uid)

    def _applied_one(self, op_uid: str) -> None:
        env = self.comm.env
        checker = env.process.engine.checker
        if checker.enabled:
            checker.on_rma_apply(env.rank, self.win_id, op_uid)
        ins = env.process.engine.instruments
        if ins.enabled:
            ins.count("rma.applied", 1, rank=env.rank)
        self._applied += 1
        if self._fence_flag is not None and self._applied >= self._fence_need:
            self._fence_flag.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Win id={self.win_id} size={self.size} "
                f"rank={self.comm.rank}/{self.comm.size}>")
