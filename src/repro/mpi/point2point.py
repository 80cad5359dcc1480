"""Point-to-point implementation: the glue between the user API and the
ADI (MPICH's "generic ADI code" box).

All functions here are generators run in the calling (main or temporary)
thread of the sending/receiving process.  The check-unexpected-then-post
sequence in :func:`irecv_impl` is atomic because the scheduler is
cooperative and the sequence contains no blocking yield — the exact
invariant real MPICH maintains with locks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import (
    FailoverExhaustedError,
    MPIProcFailedError,
    MPIRankError,
    MPIRevokedError,
    MPITagError,
)
from repro.mpi.adi.device import clone_payload
from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.protocol import TransferMode, select_mode
from repro.mpi.adi.queues import UnexpectedKind
from repro.mpi.adi.rhandle import RecvHandle, SendHandle
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    ERR_TRUNCATE,
    PROC_NULL,
    TAG_UB,
    infer_size,
)
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status
from repro.sim.coroutines import charge, wait
from repro.sim.sync import Flag

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


def _check_rank(comm: "Communicator", rank: int, *, wildcard: bool,
                what: str) -> None:
    if rank == PROC_NULL:
        return
    if wildcard and rank == ANY_SOURCE:
        return
    if not 0 <= rank < comm.group.size:
        raise MPIRankError(
            f"{what} rank {rank} out of range for communicator of size "
            f"{comm.group.size}"
        )


def _check_tag(tag: int, *, wildcard: bool) -> None:
    if wildcard and tag == ANY_TAG:
        return
    if not 0 <= tag <= TAG_UB:
        raise MPITagError(f"tag {tag} outside [0, {TAG_UB}]")


class SendGate:
    """FIFO ticket gate enforcing MPI's non-overtaking send order.

    ``isend`` runs its transfer in a temporary Marcel thread, so without
    ordering a later blocking send could reach the wire first.  Each send
    towards one (context, destination) takes a ticket at *call* time and
    transmits only when its ticket is current; the gate is released as
    soon as the message's matching slot at the receiver is secured (an
    eager message fully sent, or a rendezvous *request* sent).
    """

    def __init__(self, dest_world: int | None = None) -> None:
        self._next = 0
        self.current = 0
        #: Destination rank (wait-for-graph metadata: a task parked on a
        #: gate ticket is transitively waiting on this rank's receiver).
        self.dest_world = dest_world
        self._flags: dict[int, Flag] = {}

    @property
    def depth(self) -> int:
        """Sends holding a ticket that have not released it yet."""
        return self._next - self.current

    def ticket(self) -> int:
        ticket = self._next
        self._next += 1
        return ticket

    def enter(self, ticket: int) -> Generator:
        while self.current != ticket:
            flag = self._flags.get(ticket)
            if flag is None:
                flag = self._flags[ticket] = Flag(name="send-gate")
                flag.rank_dep = self.dest_world
                flag.dep_describe = (f"send-gate ticket {ticket} towards "
                                     f"rank {self.dest_world}")
            yield wait(flag)

    def leave(self) -> None:
        self.current += 1
        flag = self._flags.pop(self.current, None)
        if flag is not None:
            flag.set()

    def releaser(self):
        """A call-once wrapper around :meth:`leave`."""
        done = [False]

        def release() -> None:
            if not done[0]:
                done[0] = True
                self.leave()

        return release


def send_impl(comm: "Communicator", data: Any, dest: int, tag: int,
              size: int | None, context_id: int,
              synchronous: bool = False,
              ticket: int | None = None) -> Generator:
    """Blocking send body (also run inside isend's temporary thread).

    ``synchronous`` forces the rendezvous protocol regardless of size —
    MPI_Ssend semantics: completion implies the receive has started
    (the acknowledgement only comes once a matching receive exists).

    ``ticket`` is an ordering ticket already issued at isend call time,
    where the payload was detached too; blocking sends issue their own
    ticket and detach their payload on entry.  Devices pass the detached
    payload on without copying it again.
    """
    _check_rank(comm, dest, wildcard=False, what="destination")
    _check_tag(tag, wildcard=False)
    if dest == PROC_NULL:
        return
    env = comm.env
    dest_world = comm.group.world_rank(dest)
    if env.ft is not None and ticket is None:
        # Fault tolerance: fail fast instead of transmitting into a dead
        # rank or a revoked communicator (nothing has been charged yet).
        # A pre-issued ticket (isend) must not bail here — it would leave
        # the ordering gate waiting forever for its turn; the post-gate
        # re-check below consumes and releases the ticket properly.
        env.ft.check_send(context_id, dest_world)
    nbytes = infer_size(data) if size is None else int(size)
    device = env.select_device(dest_world)
    envelope = Envelope(context_id, env.rank, tag, nbytes,
                        env.progress.byte_order)
    payload = clone_payload(data) if ticket is None else data
    if synchronous:
        mode = TransferMode.RENDEZVOUS
    else:
        mode = select_mode(nbytes, device.threshold(dest_world))
    engine = env.process.engine
    tracer = engine.tracer
    if tracer.enabled:
        tracer.emit(
            "adi.send", src=env.rank, dst=dest_world, tag=tag, size=nbytes,
            device=device.name, mode=mode.value,
        )
    ins = engine.instruments
    if ins.enabled:
        ins.count("adi.mode", 1, mode=mode.value, device=device.name,
                  rank=env.rank)
        ins.observe("adi.msg_bytes", nbytes, mode=mode.value, rank=env.rank)
    gate = send_gate(comm, dest_world, context_id)
    if ticket is None:
        ticket = gate.ticket()
    if ins.enabled:
        # Depth is sampled at ticket time — its natural peak.
        ins.set_gauge("sendgate.depth", gate.depth, rank=env.rank,
                      dest=dest_world)
    if gate.current != ticket:
        yield from gate.enter(ticket)
    if env.ft is not None:
        # Re-check after the gate wait: the peer may have died (or the
        # comm been revoked) while this send was parked behind others.
        try:
            env.ft.check_send(context_id, dest_world)
        except (MPIProcFailedError, MPIRevokedError):
            gate.leave()
            raise
    checker = engine.checker
    if checker.enabled:
        # Recorded *after* the gate admitted this send: gate order is
        # wire order is MPI stream order (non-overtaking).
        checker.on_send(envelope, dest_world)
    # Eager: the finally below is the only caller, no call-once wrapper.
    release = gate.leave if mode is TransferMode.EAGER else gate.releaser()
    try:
        if mode is TransferMode.EAGER:
            yield from device.send_eager(dest_world, envelope, payload)
        else:
            shandle = SendHandle(envelope, payload)
            shandle.dest_world = dest_world
            # The gate opens once the request has secured the match slot.
            shandle.on_request_sent = release
            yield from device.send_rndv(dest_world, shandle)
    except FailoverExhaustedError as exc:
        if env.ft is None:
            raise
        # Every path to the destination is gone: under the rank-failure
        # model that *is* peer death (the detector has been told).
        raise MPIProcFailedError(
            f"send to rank {dest_world} failed: peer unreachable",
            failed_rank=dest_world,
        ) from exc
    finally:
        release()


def send_gate(comm: "Communicator", dest_world: int,
              context_id: int) -> SendGate:
    """The per-(context, destination) ordering gate of this process."""
    gates = comm.env.progress.send_gates
    key = (context_id, dest_world)
    gate = gates.get(key)
    if gate is None:
        gate = gates[key] = SendGate(dest_world=dest_world)
    return gate


def isend_impl(comm: "Communicator", data: Any, dest: int, tag: int,
               size: int | None, context_id: int,
               synchronous: bool = False,
               pre_charge: int = 0) -> SendRequest:
    """Non-blocking send: spawn a temporary Marcel thread (§4.2.3).

    The payload is captured *now* (mpi4py's lowercase isend serializes at
    call time), so callers may reuse their buffer immediately.

    ``pre_charge`` is a CPU cost the temporary thread pays before the
    transfer — the uppercase Isend path uses it to charge a
    non-contiguous datatype's gather copy without blocking the caller.
    """
    done = Flag(name="isend")
    payload = clone_payload(data)
    # The ordering ticket is taken NOW, at call time: the temporary
    # thread may run later, but this send's position in the stream is
    # its isend position (MPI non-overtaking).
    ticket = None
    if dest != PROC_NULL and 0 <= dest < comm.group.size:
        dest_world = comm.group.world_rank(dest)
        gate = send_gate(comm, dest_world, context_id)
        ticket = gate.ticket()
        ins = comm.env.process.engine.instruments
        if ins.enabled:
            ins.set_gauge("sendgate.depth", gate.depth, rank=comm.env.rank,
                          dest=dest_world)

    request = SendRequest(done)

    def body():
        if pre_charge:
            yield charge(pre_charge)
        try:
            yield from send_impl(comm, payload, dest, tag, size, context_id,
                                 synchronous=synchronous, ticket=ticket)
        except (MPIProcFailedError, MPIRevokedError) as exc:
            # FT failure inside the worker thread: complete the request
            # and re-raise from the caller's wait()/test().
            request.error = exc
        finally:
            done.set()

    comm.env.process.runtime.spawn_temporary(body(), name="isend")
    return request


def irecv_impl(comm: "Communicator", source: int, tag: int,
               capacity: int | None, context_id: int) -> RecvRequest:
    """Post a receive (non-blocking).  Never yields — atomic w.r.t. the
    cooperative scheduler.

    Blocking ``comm.recv`` posts through here too: the request and its
    handle are built per call and freed by reference counting once the
    caller drops them (no object refers back to the handle).
    """
    _check_rank(comm, source, wildcard=True, what="source")
    _check_tag(tag, wildcard=True)
    env = comm.env
    if source == PROC_NULL:
        handle = RecvHandle(context_id, PROC_NULL, tag, capacity)
        handle.status.source = PROC_NULL
        handle.status.count = 0
        handle.set()
        return RecvRequest(handle, comm)
    source_world = (ANY_SOURCE if source == ANY_SOURCE
                    else comm.group.world_rank(source))
    if env.ft is not None:
        failure = env.ft.recv_precheck(context_id, source_world)
        if failure is not None:
            # The source (or the comm) is already known broken: complete
            # immediately with the structured error instead of posting a
            # receive that could never match.
            code, failed_rank = failure
            handle = RecvHandle(context_id, source_world, tag, capacity)
            handle.status.error = code
            handle.status.failed_rank = failed_rank
            handle.set()
            return RecvRequest(handle, comm)
    progress = env.progress
    entry = progress.unexpected.match(context_id, source_world, tag)
    handle = RecvHandle(context_id, source_world, tag, capacity)
    request = RecvRequest(handle, comm)
    if entry is None:
        progress.posted.post(handle)
        request.posted_queue = progress.posted
        return request
    checker = env.process.engine.checker
    if checker.enabled:
        checker.on_match(entry.envelope, env.rank)
    if entry.kind is UnexpectedKind.EAGER:
        if capacity is not None and entry.envelope.size > capacity:
            handle.status.error = ERR_TRUNCATE
        handle.complete(entry.envelope, entry.data)
        # The unexpected-buffer -> user-buffer copy is charged by the
        # thread that eventually waits (irecv itself must not yield).
        request.pending_copy_bytes = entry.envelope.size
        return request
    # RNDV_REQUEST: the sender is waiting for our acknowledgement.  A
    # temporary thread sends it (the paper's thread discipline, §4.2.3) —
    # this also keeps irecv itself non-blocking.
    handle.rndv_source = entry.envelope.source
    sync_id = progress.register_sync(handle)
    token = entry.rndv_token
    env.process.runtime.spawn_temporary(
        token.device.send_rndv_ack(token, sync_id), name="rndv-ack"
    )
    return request


def recv_wait(comm: "Communicator", request: RecvRequest) -> Generator:
    """Complete a receive request: charge deferred copies, then wait."""
    if request.pending_copy_bytes:
        nbytes, request.pending_copy_bytes = request.pending_copy_bytes, 0
        yield charge(comm.env.progress.memory.copy_cost(nbytes))
    yield wait(request.handle)  # Request.wait, without its frame
    return request._result()


def probe_impl(comm: "Communicator", source: int, tag: int,
               context_id: int) -> Generator:
    """Blocking probe: evaluates to a Status for the first match."""
    _check_rank(comm, source, wildcard=True, what="source")
    _check_tag(tag, wildcard=True)
    env = comm.env
    source_world = (ANY_SOURCE if source == ANY_SOURCE
                    else comm.group.world_rank(source))
    while True:
        entry = env.progress.unexpected.peek(context_id, source_world, tag)
        if entry is not None:
            return _entry_status(comm, entry)
        yield wait(env.progress.arrivals)


def iprobe_impl(comm: "Communicator", source: int, tag: int,
                context_id: int) -> tuple[bool, Status | None]:
    """Non-blocking probe."""
    _check_rank(comm, source, wildcard=True, what="source")
    _check_tag(tag, wildcard=True)
    source_world = (ANY_SOURCE if source == ANY_SOURCE
                    else comm.group.world_rank(source))
    entry = comm.env.progress.unexpected.peek(context_id, source_world, tag)
    if entry is None:
        return False, None
    return True, _entry_status(comm, entry)


def _entry_status(comm: "Communicator", entry) -> Status:
    envelope = entry.envelope
    return Status(source=comm.group.rank_of(envelope.source),
                  tag=envelope.tag, count=envelope.size,
                  source_world=envelope.source)
