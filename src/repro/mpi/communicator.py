"""Communicators: the user-facing MPI object.

API shape mirrors mpi4py: lowercase methods move arbitrary Python
objects; uppercase methods move numpy buffers through the datatype
engine.  All communication methods are generators — call them with
``yield from`` inside a program coroutine::

    yield from comm.send(obj, dest=1, tag=7)
    data, status = yield from comm.recv(source=0)
    total = yield from comm.allreduce(comm.rank)
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.errors import MPICommError, MPIDatatypeError, MPIError
from repro.mpi import coll as _collreg
from repro.mpi.coll import flat as _flat
from repro.mpi import point2point as _p2p
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_CONTEXT_OFFSET,
    COMM_TYPE_SHARED,
    UNDEFINED,
)
from repro.mpi.datatypes import BYTE, Datatype
from repro.mpi.group import Group
from repro.mpi.reduce_ops import SUM, Op
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status
from repro.sim.coroutines import charge


class Communicator:
    """An MPI communicator: a group plus an isolated context."""

    def __init__(self, env, group: Group, context_id: int):
        self.env = env
        self.group = group
        self.context_id = context_id
        self.rank = group.rank_of(env.rank)
        if self.rank == UNDEFINED:
            raise MPICommError(
                f"process {env.rank} constructed a communicator it is not in"
            )
        self._coll_seq = 0
        self.freed = False
        if env.ft is not None:
            env.ft.register_comm(self)

    #: Subcommunicators the hierarchical and multi-lane collective
    #: families derived from this one (a failed collective poisons
    #: them too; see :meth:`~repro.mpi.ft.FTState.collective_failed`).
    _derived_comms: tuple["Communicator", ...] = ()

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def collective_context(self) -> int:
        """Hidden context for collective traffic (the MPICH trick)."""
        return self.context_id + COLLECTIVE_CONTEXT_OFFSET

    def _check_live(self) -> None:
        if self.freed:
            raise MPICommError("operation on a freed communicator")
        ft = self.env.ft
        if ft is not None and ft.is_revoked(self):
            from repro.errors import MPIRevokedError
            raise MPIRevokedError(
                f"operation on revoked communicator (context "
                f"{self.context_id})")

    # =====================================================================
    # fault tolerance (ULFM: revoke / shrink / agree)
    # =====================================================================

    def _ft(self):
        ft = self.env.ft
        if ft is None:
            raise MPICommError(
                "fault-tolerance API requires a cluster with the failure "
                "model enabled (ClusterConfig.ft or a plan with deaths)")
        return ft

    def revoke(self) -> None:
        """MPIX_Comm_revoke: poison this communicator on every rank.

        Local and non-blocking; the revocation floods the group
        reliably.  Subsequent operations on this communicator raise
        :class:`~repro.errors.MPIRevokedError` everywhere.
        """
        if self.freed:
            raise MPICommError("operation on a freed communicator")
        self._ft().revoke(self)

    def shrink(self) -> Generator:
        """MPIX_Comm_shrink: evaluates to a new communicator over the
        surviving members (dense ranks, old order preserved).  Works on
        a revoked communicator — that is its purpose."""
        if self.freed:
            raise MPICommError("operation on a freed communicator")
        shrunk = yield from self._ft().shrink(self)
        return shrunk

    def agree(self, value: int = 1) -> Generator:
        """MPIX_Comm_agree: evaluates to the bitwise AND of every
        survivor's ``value`` (fault-tolerant agreement)."""
        if self.freed:
            raise MPICommError("operation on a freed communicator")
        result = yield from self._ft().agree(self, value)
        return result

    def _run_coll(self, gen: Generator) -> Generator:
        """FT wrapper for user collectives: pre-flight check, and flood
        the broken collective context when a failure surfaces mid-flight
        so the whole group unblocks with the same error.  With FT off
        this is a plain delegation."""
        ft = self.env.ft
        if ft is None:
            result = yield from gen
            return result
        result = yield from ft.run_collective(self, gen)
        return result

    # =====================================================================
    # point-to-point, object flavour (lowercase)
    # =====================================================================

    def send(self, obj: Any, dest: int, tag: int = 0,
             size: int | None = None) -> Generator:
        """Blocking standard-mode send.

        ``size`` overrides the inferred wire size (benchmarks use this to
        decouple payload objects from modelled bytes).  A declared size
        of 0 sends an empty message: the receiver gets ``None``, exactly
        as a real 0-byte MPI message carries no data.
        """
        self._check_live()
        yield from _p2p.send_impl(self, obj, dest, tag, size, self.context_id)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             size: int | None = None) -> Generator:
        """Blocking receive; evaluates to ``(data, Status)``.

        ``size`` is the receive capacity in bytes: a longer incoming
        message raises :class:`~repro.errors.MPITruncationError`.
        """
        self._check_live()
        request = _p2p.irecv_impl(self, source, tag, size, self.context_id)
        result = yield from _p2p.recv_wait(self, request)
        return result

    def ssend(self, obj: Any, dest: int, tag: int = 0,
              size: int | None = None) -> Generator:
        """Synchronous send: completes only once the receive has started
        (forces the rendezvous protocol regardless of size)."""
        self._check_live()
        yield from _p2p.send_impl(self, obj, dest, tag, size, self.context_id,
                                  synchronous=True)

    def isend(self, obj: Any, dest: int, tag: int = 0,
              size: int | None = None) -> SendRequest:
        """Non-blocking send (runs in a temporary Marcel thread, §4.2.3)."""
        self._check_live()
        return _p2p.isend_impl(self, obj, dest, tag, size, self.context_id)

    def issend(self, obj: Any, dest: int, tag: int = 0,
               size: int | None = None) -> SendRequest:
        """Non-blocking synchronous send."""
        self._check_live()
        return _p2p.isend_impl(self, obj, dest, tag, size, self.context_id,
                               synchronous=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              size: int | None = None) -> RecvRequest:
        """Non-blocking receive."""
        self._check_live()
        return _p2p.irecv_impl(self, source, tag, size, self.context_id)

    def sendrecv(self, sendobj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
                 size: int | None = None,
                 recvsize: int | None = None) -> Generator:
        """Combined send+receive (deadlock-free); evaluates to
        ``(data, Status)``."""
        self._check_live()
        send_request = self.isend(sendobj, dest, sendtag, size=size)
        result = yield from self.recv(source, recvtag, size=recvsize)
        yield from send_request.wait()
        return result

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking probe; evaluates to a :class:`Status`."""
        self._check_live()
        status = yield from _p2p.probe_impl(self, source, tag, self.context_id)
        return status

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> tuple[bool, Status | None]:
        """Non-blocking probe."""
        self._check_live()
        return _p2p.iprobe_impl(self, source, tag, self.context_id)

    # =====================================================================
    # point-to-point, buffer flavour (uppercase, numpy + datatypes)
    # =====================================================================

    def _resolve_buffer(self, buf) -> tuple[np.ndarray, int, Datatype]:
        """Normalize ``array`` / ``(array, datatype)`` / ``(array, count,
        datatype)`` buffer specifications (mpi4py style)."""
        if isinstance(buf, (tuple, list)):
            if len(buf) == 2:
                array, datatype = buf
                count = None
            elif len(buf) == 3:
                array, count, datatype = buf
            else:
                raise MPIDatatypeError(
                    "buffer spec must be array, (array, type) or "
                    "(array, count, type)"
                )
        else:
            array, count, datatype = buf, None, None
        array = np.asarray(array)
        if datatype is None:
            datatype = _dtype_to_datatype(array.dtype)
        if count is None:
            if datatype.extent == 0:
                count = 0
            else:
                count = (array.size * array.itemsize) // max(datatype.extent, 1)
        return array, int(count), datatype

    def Send(self, buf, dest: int, tag: int = 0) -> Generator:
        """Send a numpy buffer described by an MPI datatype."""
        self._check_live()
        array, count, datatype = self._resolve_buffer(buf)
        if datatype.is_contiguous:
            packed = array.reshape(-1)[:count * _elems(datatype)]
        else:
            # Gathering a non-contiguous layout costs a real copy.
            yield from self._charge_pack(count * datatype.size)
            packed = datatype.pack(array, count)
        yield from self.send(packed, dest, tag, size=count * datatype.size)

    def Recv(self, buf, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator:
        """Receive into a numpy buffer; evaluates to a :class:`Status`."""
        self._check_live()
        array, count, datatype = self._resolve_buffer(buf)
        data, status = yield from self.recv(source, tag,
                                            size=count * datatype.size)
        yield from self._fill_buffer(array, count, datatype, data)
        return status

    def Isend(self, buf, dest: int, tag: int = 0) -> SendRequest:
        """Non-blocking buffer send (mpi4py's MPI_Isend shape).

        The buffer is packed at call time, so the caller may reuse it
        immediately; a non-contiguous datatype's gather copy is charged
        by the transfer's temporary thread, not the caller.
        """
        self._check_live()
        array, count, datatype = self._resolve_buffer(buf)
        pre_charge = 0
        if datatype.is_contiguous:
            packed = array.reshape(-1)[:count * _elems(datatype)]
        else:
            pre_charge = self.env.progress.memory.copy_cost(
                count * datatype.size)
            packed = datatype.pack(array, count)
        return _p2p.isend_impl(self, packed, dest, tag,
                               count * datatype.size, self.context_id,
                               pre_charge=pre_charge)

    def Irecv(self, buf, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> "_BufferRecvRequest":
        """Non-blocking buffer receive.

        Returns a request whose ``wait()`` scatters the payload into
        ``buf`` and evaluates to the :class:`Status`.
        """
        self._check_live()
        array, count, datatype = self._resolve_buffer(buf)
        inner = _p2p.irecv_impl(self, source, tag, count * datatype.size,
                                self.context_id)
        return _BufferRecvRequest(inner, self, array, count, datatype)

    def Sendrecv(self, sendbuf, dest: int, sendtag: int = 0,
                 recvbuf=None, source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG) -> Generator:
        """Combined buffer send+receive (deadlock-free); evaluates to the
        receive's :class:`Status`."""
        self._check_live()
        send_request = self.Isend(sendbuf, dest, sendtag)
        status = yield from self.Recv(recvbuf, source, recvtag)
        yield from send_request.wait()
        return status

    def _fill_buffer(self, array: np.ndarray, count: int,
                     datatype: Datatype, data: Any) -> Generator:
        """Scatter received ``data`` into ``array`` per ``datatype``."""
        incoming = np.asarray(data)
        if datatype.is_contiguous:
            flat = array.reshape(-1)
            flat[:incoming.size] = incoming
        else:
            yield from self._charge_pack(count * datatype.size)
            datatype.unpack(incoming, array, count)

    def _charge_pack(self, nbytes: int) -> Generator:
        yield charge(self.env.progress.memory.copy_cost(nbytes))

    # =====================================================================
    # collectives (object flavour; algorithms in repro.mpi.coll)
    # =====================================================================

    def _coll_tag(self) -> int:
        """Fresh tag for one collective invocation (same sequence on all
        ranks — MPI requires identical collective call order)."""
        self._coll_seq += 1
        return self._coll_seq

    def barrier(self, algorithm: str | None = None) -> Generator:
        yield from self._run_coll(
            _collreg.resolve(self, "barrier", algorithm)(self))

    def bcast(self, obj: Any, root: int = 0,
              algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "bcast", algorithm)
        result = yield from self._run_coll(fn(self, obj, root))
        return result

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0,
               algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "reduce", algorithm)
        result = yield from self._run_coll(fn(self, obj, op, root))
        return result

    def allreduce(self, obj: Any, op: Op = SUM,
                  algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "allreduce", algorithm)
        result = yield from self._run_coll(fn(self, obj, op))
        return result

    def gather(self, obj: Any, root: int = 0,
               algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "gather", algorithm)
        result = yield from self._run_coll(fn(self, obj, root))
        return result

    def scatter(self, objs: Sequence[Any] | None, root: int = 0,
                algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "scatter", algorithm)
        result = yield from self._run_coll(fn(self, objs, root))
        return result

    def allgather(self, obj: Any, algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "allgather", algorithm)
        result = yield from self._run_coll(fn(self, obj))
        return result

    def alltoall(self, objs: Sequence[Any],
                 algorithm: str | None = None) -> Generator:
        fn = _collreg.resolve(self, "alltoall", algorithm)
        result = yield from self._run_coll(fn(self, objs))
        return result

    def reduce_scatter(self, objs: Sequence[Any], op: Op = SUM) -> Generator:
        result = yield from self._run_coll(
            _flat.reduce_scatter(self, objs, op))
        return result

    def alltoallv(self, objs: Sequence[Any]) -> Generator:
        """Variable-size all-to-all: object payloads carry their own
        sizes, so the wire pattern is :meth:`alltoall`'s."""
        result = yield from self._run_coll(_flat.alltoall(self, objs))
        return result

    def scan(self, obj: Any, op: Op = SUM) -> Generator:
        result = yield from self._run_coll(_flat.scan(self, obj, op))
        return result

    def exscan(self, obj: Any, op: Op = SUM) -> Generator:
        result = yield from self._run_coll(_flat.exscan(self, obj, op))
        return result

    # Buffer-flavour collectives (numpy arrays, elementwise ops): each
    # runs its object-flavour sibling and copies the result into place.

    def Bcast(self, array: np.ndarray, root: int = 0,
              algorithm: str | None = None) -> Generator:
        """In-place broadcast of a numpy array."""
        data = yield from self.bcast(array if self.rank == root else None,
                                     root, algorithm)
        if self.rank != root:
            np.copyto(array, np.asarray(data).reshape(array.shape))

    def Reduce(self, sendarr: np.ndarray, recvarr: np.ndarray | None,
               op: Op = SUM, root: int = 0,
               algorithm: str | None = None) -> Generator:
        result = yield from self.reduce(np.asarray(sendarr), op, root,
                                        algorithm)
        if self.rank == root:
            if recvarr is None:
                raise MPIError("Reduce root needs a receive buffer")
            np.copyto(recvarr, np.asarray(result).reshape(recvarr.shape))

    def Allreduce(self, sendarr: np.ndarray, recvarr: np.ndarray,
                  op: Op = SUM, algorithm: str | None = None) -> Generator:
        result = yield from self.allreduce(np.asarray(sendarr), op,
                                           algorithm)
        np.copyto(recvarr, np.asarray(result).reshape(recvarr.shape))

    def Gather(self, sendarr: np.ndarray, recvarr: np.ndarray | None,
               root: int = 0, algorithm: str | None = None) -> Generator:
        parts = yield from self.gather(np.asarray(sendarr), root, algorithm)
        if self.rank == root:
            if recvarr is None:
                raise MPIError("Gather root needs a receive buffer")
            stacked = np.concatenate([np.asarray(p).reshape(-1)
                                      for p in parts])
            np.copyto(recvarr.reshape(-1), stacked)

    def Scatter(self, sendarr: np.ndarray | None,
                recvarr: np.ndarray, root: int = 0,
                algorithm: str | None = None) -> Generator:
        parts = None
        if self.rank == root:
            if sendarr is None:
                raise MPIError("Scatter root needs a send buffer")
            flat = np.asarray(sendarr).reshape(self.size, -1)
            parts = [flat[i].copy() for i in range(self.size)]
        part = yield from self.scatter(parts, root, algorithm)
        np.copyto(recvarr.reshape(-1), np.asarray(part).reshape(-1))

    def Allgather(self, sendarr: np.ndarray, recvarr: np.ndarray,
                  algorithm: str | None = None) -> Generator:
        parts = yield from self.allgather(np.asarray(sendarr), algorithm)
        stacked = np.concatenate([np.asarray(p).reshape(-1) for p in parts])
        np.copyto(recvarr.reshape(-1), stacked)

    def Gatherv(self, sendarr: np.ndarray, recvspec: tuple | None,
                root: int = 0) -> Generator:
        """Variable-count gather: ``recvspec = (recvarr, counts, displs)``
        at root (counts/displs in elements)."""
        parts = yield from self.gather(np.asarray(sendarr), root, "default")
        if self.rank == root:
            if recvspec is None:
                raise MPIError("Gatherv root needs (recvarr, counts, displs)")
            recvarr, counts, displs = recvspec
            flat = recvarr.reshape(-1)
            for part, count, displ in zip(parts, counts, displs):
                data = np.asarray(part).reshape(-1)
                if data.size != count:
                    raise MPIError(
                        f"Gatherv: contribution of {data.size} elements, "
                        f"count says {count}")
                flat[displ:displ + count] = data

    def Scatterv(self, sendspec: tuple | None, recvarr: np.ndarray,
                 root: int = 0) -> Generator:
        """Variable-count scatter: ``sendspec = (sendarr, counts, displs)``
        at root."""
        parts = None
        if self.rank == root:
            if sendspec is None:
                raise MPIError("Scatterv root needs (sendarr, counts, displs)")
            sendarr, counts, displs = sendspec
            flat = np.asarray(sendarr).reshape(-1)
            parts = [flat[d:d + c].copy() for c, d in zip(counts, displs)]
        part = yield from self.scatter(parts, root, "default")
        data = np.asarray(part).reshape(-1)
        recvarr.reshape(-1)[:data.size] = data

    def create_cart(self, dims, periods=None, reorder: bool = False) -> Generator:
        """Collective: attach a Cartesian topology (MPI_Cart_create)."""
        from repro.mpi.cartesian import create_cart
        cart = yield from create_cart(self, dims, periods, reorder)
        return cart

    # =====================================================================
    # communicator management
    # =====================================================================

    def dup(self) -> Generator:
        """Collective: duplicate this communicator with a fresh context.

        Communicator machinery (dup/split/split_type) always runs
        the flat default collectives directly: it must work identically
        whatever algorithm selection is active — the hierarchical and
        multi-lane families build their subcommunicators through here.
        """
        self._check_live()
        yield from _flat.barrier(self)
        return Communicator(self.env, self.group, self.env.allocate_context())

    def split(self, color: int, key: int | None = None) -> Generator:
        """Collective: partition by ``color``, order by ``key`` (MPI_Comm_split).

        Evaluates to the new communicator, or None for ``UNDEFINED`` color.
        """
        self._check_live()
        key = self.rank if key is None else key
        pairs = yield from _flat.allgather(self, (color, key, self.rank))
        context = self.env.allocate_context()
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for (c, k, r) in pairs if c == color
        )
        world_ranks = [self.group.world_rank(r) for _, r in members]
        return Communicator(self.env, Group(world_ranks), context)

    def split_type(self, split_type: int = COMM_TYPE_SHARED,
                   key: int | None = None) -> Generator:
        """Collective: split into node-local subcommunicators
        (MPI_Comm_split_type with MPI_COMM_TYPE_SHARED).

        Node membership comes from the cluster configuration's locality
        map (:attr:`MPIEnv.node_of_rank`), so with the default ``key``
        no rank exchange is needed beyond a barrier — membership and
        ordering (by communicator rank) are locally derivable on every
        rank.  The membership is read from the group's
        :class:`~repro.mpi.group.Locality`, built once per group and
        shared by all its ranks, so every rank of a node gets the same
        node :class:`~repro.mpi.group.Group` in O(1).  ``UNDEFINED``
        evaluates to None, like :meth:`split`.
        """
        self._check_live()
        if split_type == UNDEFINED:
            yield from _flat.barrier(self)
            self.env.allocate_context()
            return None
        if split_type != COMM_TYPE_SHARED:
            raise MPICommError(
                f"unsupported split_type {split_type!r}; only "
                "COMM_TYPE_SHARED (and UNDEFINED) exist")
        if key is not None:
            result = yield from self.split(self.env.node, key)
            return result
        yield from _flat.barrier(self)
        context = self.env.allocate_context()
        locality = self.group.locality(self.env.node_of_rank)
        node_group = locality.node_groups.get(self.env.node, Group(()))
        return Communicator(self.env, node_group, context)

    def free(self) -> None:
        """Mark the communicator unusable (MPI_Comm_free)."""
        self.freed = True

    # -- one-sided communication (MPI-2 RMA) --------------------------------

    def win_create(self, size: int) -> Generator:
        """Collective: expose ``size`` bytes per rank as an RMA window
        (MPI_Win_create).  Evaluates to a :class:`~repro.mpi.win.Win`;
        access it between :meth:`~repro.mpi.win.Win.fence` calls.
        """
        self._check_live()
        from repro.mpi.win import Win
        win = yield from Win.create(self, size)
        return win

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Communicator ctx={self.context_id} rank={self.rank}/"
                f"{self.size}>")


class _BufferRecvRequest(Request):
    """Handle for an uppercase ``Irecv``: completion fills the buffer.

    ``wait()`` evaluates to the :class:`Status`; the payload lands in
    the user's array (scattered through the datatype when the layout is
    non-contiguous).  ``test()`` reports completion but, like mpi4py,
    yields its result only through ``wait()``.
    """

    def __init__(self, inner: RecvRequest, comm: Communicator,
                 array: np.ndarray, count: int, datatype: Datatype):
        super().__init__(inner._flag)
        self.inner = inner
        self.comm = comm
        self._array = array
        self._count = count
        self._datatype = datatype

    def wait(self) -> Generator:
        data, status = yield from _p2p.recv_wait(self.comm, self.inner)
        yield from self.comm._fill_buffer(self._array, self._count,
                                          self._datatype, data)
        return status


def _elems(datatype: Datatype) -> int:
    return int(datatype.byte_offsets.size)


def _dtype_to_datatype(dtype: np.dtype) -> Datatype:
    from repro.mpi import datatypes as dt
    table = {
        np.dtype("uint8"): dt.BYTE,
        np.dtype("int8"): dt.CHAR,
        np.dtype("int16"): dt.SHORT,
        np.dtype("int32"): dt.INT,
        np.dtype("int64"): dt.LONG,
        np.dtype("float32"): dt.FLOAT,
        np.dtype("float64"): dt.DOUBLE,
        np.dtype("complex64"): dt.COMPLEX,
        np.dtype("complex128"): dt.DOUBLE_COMPLEX,
    }
    try:
        return table[dtype]
    except KeyError:
        raise MPIDatatypeError(f"no MPI datatype for numpy dtype {dtype}") from None
