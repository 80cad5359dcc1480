"""ULFM-style fault tolerance: the MPI layer's view of rank failure.

One :class:`FTState` per rank's :class:`~repro.mpi.environment.MPIEnv`
turns the session-wide :class:`~repro.faults.death.FailureDetector`'s
declarations into structured MPI errors, implementing the User-Level
Failure Mitigation recovery model:

- operations naming a dead peer raise ``MPI_ERR_PROC_FAILED``
  (:class:`~repro.errors.MPIProcFailedError`) instead of hanging —
  pending receives, parked sends, in-flight rendezvous included;
- :meth:`revoke` poisons a communicator everywhere (a reliable flood:
  first receipt re-floods), after which any operation on it raises
  ``MPI_ERR_REVOKED``;
- :meth:`shrink` builds a dense survivor communicator deterministically
  (old rank order preserved);
- :meth:`agree` is a fault-tolerant bitwise-AND agreement over the
  survivors.

Internal FT traffic rides two reserved context ids far above anything
:meth:`~repro.mpi.environment.MPIEnv.allocate_context` can hand out:
``FT_CONTROL_CONTEXT`` (the revoke/failure flood, received by a daemon
listener on every rank) and ``FT_SYNC_CONTEXT`` (shrink/agree rounds).

Everything here is reachable only when the cluster enables the failure
model (``ClusterConfig.ft`` or a fault plan with deaths): ``env.ft`` is
None otherwise and no FT branch in the hot paths fires, keeping the
no-failure schedules bit-identical to a build without this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable

from repro.errors import MPIProcFailedError, MPIRevokedError
from repro.mpi import point2point as _p2p
from repro.mpi.adi.queues import UnexpectedKind
from repro.mpi.adi.rhandle import RecvHandle
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    CONTEXTS_PER_COMM,
    ERR_PROC_FAILED,
    ERR_REVOKED,
    FT_CONTROL_CONTEXT,
    FT_SYNC_CONTEXT,
)
from repro.sim.coroutines import wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.death import FailureDetector
    from repro.mpi.adi.packets import Envelope
    from repro.mpi.communicator import Communicator
    from repro.mpi.environment import MPIEnv

#: Modelled wire size (bytes) of one FT control/sync message.
FT_MSG_BYTES = 64


class FTState:
    """Per-rank ULFM state machine (failure knowledge + revocations)."""

    def __init__(self, env: "MPIEnv", detector: "FailureDetector"):
        self.env = env
        self.detector = detector
        self.engine = env.process.engine
        #: World ranks this rank knows to be dead (mirrors the detector's
        #: declarations, applied through an engine callback so queue
        #: surgery never runs inside a polling thread).
        self.known_failures: set[int] = set()
        #: Revoked communicators, by *base* context id (covers the
        #: point-to-point and the hidden collective context).
        self.revoked: set[int] = set()
        #: Exact context ids poisoned by a failed collective -> the world
        #: rank whose death broke it (None when unknown).
        self.failed_contexts: dict[int, int | None] = {}
        #: base context id -> Communicator, for ANY_SOURCE adjudication
        #: and flood targeting.  Filled by Communicator.__init__.
        self.comms: dict[int, "Communicator"] = {}
        #: Lockstep sequence for shrink/agree rounds (tag space of
        #: FT_SYNC_CONTEXT).
        self._sync_seq = 0
        self._listener_handle: RecvHandle | None = None
        self._stopped = False
        detector.add_listener(self._on_death_declared)
        env.progress.ft = self

    # -- plumbing helpers ------------------------------------------------------

    @staticmethod
    def _base(context_id: int) -> int:
        return context_id - (context_id % CONTEXTS_PER_COMM)

    def _ins(self):
        return self.engine.instruments

    def register_comm(self, comm: "Communicator") -> None:
        self.comms[self._base(comm.context_id)] = comm

    def is_revoked(self, comm: "Communicator") -> bool:
        return self._base(comm.context_id) in self.revoked

    def live_members(self, comm: "Communicator") -> list[int]:
        """Comm members (world ranks, old order) not known to be dead."""
        return [r for r in comm.group.world_ranks
                if r not in self.detector.dead_ranks]

    # -- fail-fast checks (called from the p2p/collective hot paths) ----------

    def check_send(self, context_id: int, dest_world: int) -> None:
        """Raise instead of transmitting into a dead rank / revoked comm."""
        if context_id < FT_CONTROL_CONTEXT \
                and self._base(context_id) in self.revoked:
            raise MPIRevokedError(
                f"send on revoked communicator (context {context_id})")
        if dest_world in self.known_failures:
            raise MPIProcFailedError(
                f"send to rank {dest_world} failed: peer is dead",
                failed_rank=dest_world)

    def recv_precheck(self, context_id: int,
                      source_world: int) -> tuple[int, int | None] | None:
        """(status-error, failed_rank) for a receive that can never match,
        or None when the receive may be posted normally."""
        if context_id == FT_CONTROL_CONTEXT:
            return None
        if context_id < FT_CONTROL_CONTEXT:
            if self._base(context_id) in self.revoked:
                return (ERR_REVOKED, None)
            if context_id in self.failed_contexts:
                return (ERR_PROC_FAILED, self.failed_contexts[context_id])
        if source_world != ANY_SOURCE:
            if source_world in self.known_failures:
                return (ERR_PROC_FAILED, source_world)
            return None
        if context_id < FT_CONTROL_CONTEXT:
            # ULFM: a wildcard receive cannot be satisfied once any group
            # member is dead — the missing sender might have been it.
            comm = self.comms.get(self._base(context_id))
            if comm is not None:
                for member in comm.group.world_ranks:
                    if member in self.known_failures:
                        return (ERR_PROC_FAILED, member)
        return None

    def check_collective(self, comm: "Communicator") -> None:
        """Fail a collective before it starts when the comm is broken."""
        if self.is_revoked(comm):
            raise MPIRevokedError(
                f"collective on revoked communicator "
                f"(context {comm.context_id})")
        culprit = self.failed_contexts.get(comm.collective_context)
        if comm.collective_context in self.failed_contexts:
            raise MPIProcFailedError(
                f"collective context {comm.collective_context} was broken "
                f"by a rank failure", failed_rank=culprit)
        for member in comm.group.world_ranks:
            if member in self.known_failures:
                raise MPIProcFailedError(
                    f"collective with dead rank {member}",
                    failed_rank=member)

    # -- arrival filtering (progress-engine delivery gates) --------------------

    def should_discard(self, envelope: "Envelope") -> bool:
        if envelope.source in self.known_failures:
            return True
        ctx = envelope.context_id
        if ctx >= FT_CONTROL_CONTEXT:
            return False
        return self._base(ctx) in self.revoked or ctx in self.failed_contexts

    def note_discard(self, envelope: "Envelope", send_id: int = 0) -> None:
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.discards", 1, rank=self.env.rank,
                      source=envelope.source)
        checker = self.engine.checker
        if checker.enabled:
            checker.on_ft_discard(self.env.rank, envelope, send_id)

    # -- death handling --------------------------------------------------------

    def _on_death_declared(self, rank: int) -> None:
        """Detector listener (runs as a fresh engine callback)."""
        if self._stopped or self.env.finalized:
            return
        if getattr(self.env.process, "dead", False) or rank == self.env.rank:
            return
        self.on_peer_death(rank)

    def on_peer_death(self, rank: int) -> None:
        """Fail every local operation that waits on ``rank`` forever."""
        if rank in self.known_failures:
            return
        self.known_failures.add(rank)
        exc = MPIProcFailedError(
            f"rank {rank} died", failed_rank=rank)

        def doomed(handle: RecvHandle) -> bool:
            if handle.context_id == FT_CONTROL_CONTEXT:
                return False
            if handle.source_pattern == rank:
                return True
            if handle.source_pattern == ANY_SOURCE \
                    and handle.context_id < FT_CONTROL_CONTEXT:
                comm = self.comms.get(self._base(handle.context_id))
                return comm is not None and rank in comm.group
            return False

        self._sweep_local(doomed,
                          lambda shandle: shandle.dest_world == rank,
                          lambda envelope: envelope.source == rank,
                          lambda handle: handle.rndv_source == rank,
                          ERR_PROC_FAILED, rank, exc)

    def _fail_contexts_local(self, contexts: set[int], code: int,
                             failed_rank: int | None,
                             exc: Exception) -> None:
        """Fail every local operation bound to one of ``contexts``."""
        self._sweep_local(
            lambda handle: handle.context_id in contexts,
            lambda shandle: shandle.envelope.context_id in contexts,
            lambda envelope: envelope.context_id in contexts,
            lambda handle: handle.context_id in contexts,
            code, failed_rank, exc)

    def _sweep_local(self, doomed_posted, doomed_send, doomed_envelope,
                     doomed_sync, code: int, failed_rank: int | None,
                     exc: Exception) -> None:
        """The four-queue sweep shared by peer-death and revocation:
        posted receives, pending rendezvous sends, buffered unexpected
        arrivals, and armed rendezvous sync entries."""
        env = self.env
        progress = env.progress
        ins = self._ins()
        checker = self.engine.checker
        failed_ops = 0
        for handle in progress.posted.take_matching(doomed_posted):
            self._fail_recv(handle, code, failed_rank)
            failed_ops += 1
        pending = progress.pending_sends
        for send_id, shandle in list(pending.items()):
            if not doomed_send(shandle):
                continue
            del pending[send_id]
            shandle.error = exc
            shandle.ack_flag.set(None)
            failed_ops += 1
            if checker.enabled:
                checker.on_ft_abort_send(env.rank, send_id)
        for entry in progress.unexpected.purge(
                lambda e: doomed_envelope(e.envelope)):
            send_id = 0
            if entry.kind is UnexpectedKind.RNDV_REQUEST:
                send_id = entry.rndv_token.send_id
            self.note_discard(entry.envelope, send_id=send_id)
        for sync_id, handle in list(progress.sync_registry.items()):
            if handle.completed or not doomed_sync(handle):
                continue
            del progress.sync_registry[sync_id]
            self._fail_recv(handle, code, failed_rank)
            failed_ops += 1
        if failed_ops and ins.enabled:
            ins.count("ft.ops_failed", failed_ops, rank=env.rank,
                      error="proc-failed" if code == ERR_PROC_FAILED
                      else "revoked")
        progress.arrivals.notify_all()

    @staticmethod
    def _fail_recv(handle: RecvHandle, code: int,
                   failed_rank: int | None) -> None:
        handle.status.error = code
        handle.status.failed_rank = failed_rank
        handle.set()

    # -- revocation ------------------------------------------------------------

    def revoke(self, comm: "Communicator") -> None:
        """MPI_Comm_revoke: poison ``comm`` on every rank (non-blocking
        local call; the flood propagates asynchronously)."""
        self._apply_revoke(self._base(comm.context_id), flood=True)

    def _apply_revoke(self, base_context: int, flood: bool) -> None:
        if base_context in self.revoked:
            return
        self.revoked.add(base_context)
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.revokes", 1, rank=self.env.rank)
            ins.emit("ft.revoke", rank=self.env.rank, context=base_context)
        checker = self.engine.checker
        if checker.enabled:
            checker.on_revoke(self.env.rank,
                              (base_context, base_context + 1))
        self._fail_contexts_local(
            {base_context, base_context + 1}, ERR_REVOKED, None,
            MPIRevokedError(f"communicator context {base_context} revoked"))
        if flood:
            self._flood(("revoke", base_context, self.env.rank),
                        self._flood_targets(base_context))

    # -- broken collectives ----------------------------------------------------

    def collective_failed(self, comm: "Communicator", exc: Exception) -> None:
        """A collective on ``comm`` raised an FT error on this rank:
        poison its collective context — and those of the hierarchical
        and multi-lane subcommunicators derived from it
        (``comm._derived_comms``) — everywhere, so ranks
        parked inside the same collective unblock with the same error
        instead of waiting on a peer that already bailed out."""
        if isinstance(exc, MPIRevokedError):
            return  # revocation already floods its own poison
        failed_rank = getattr(exc, "failed_rank", None)
        contexts = {comm.collective_context}
        for sub in comm._derived_comms:
            contexts.add(sub.context_id)
            contexts.add(sub.collective_context)
        self._apply_coll_failed(tuple(sorted(contexts)), failed_rank,
                                flood=True)

    def _apply_coll_failed(self, contexts: tuple[int, ...],
                           failed_rank: int | None, flood: bool) -> None:
        fresh = [c for c in contexts if c not in self.failed_contexts]
        if not fresh:
            return
        for context in fresh:
            self.failed_contexts[context] = failed_rank
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.coll_failures", 1, rank=self.env.rank)
        self._fail_contexts_local(
            set(fresh), ERR_PROC_FAILED, failed_rank,
            MPIProcFailedError("collective broken by rank failure",
                               failed_rank=failed_rank))
        if flood:
            self._flood(("coll_failed", tuple(contexts), failed_rank),
                        range(self.env.size))

    # -- the control flood -----------------------------------------------------

    def _flood_targets(self, base_context: int) -> Iterable[int]:
        comm = self.comms.get(base_context)
        if comm is not None:
            return comm.group.world_ranks
        return range(self.env.size)

    def _flood(self, message: tuple, targets: Iterable[int]) -> None:
        """Send ``message`` to every live target (reliable-broadcast leg:
        each first receipt re-floods, so one surviving link per pair
        suffices)."""
        env = self.env
        destinations = [r for r in targets
                        if r != env.rank and r not in self.known_failures]
        if not destinations:
            return
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.revoke_floods", 1, rank=env.rank,
                      kind=message[0])
            ins.observe("ft.flood_fanout", len(destinations),
                        kind=message[0])

        def body():
            for dest in destinations:
                try:
                    yield from _p2p.send_impl(
                        env.comm_world, message, dest, 0, FT_MSG_BYTES,
                        FT_CONTROL_CONTEXT)
                except MPIProcFailedError:
                    continue  # target died mid-flood; detector knows
        env.process.runtime.spawn_temporary(body(), name="ft-flood")

    # -- the control listener --------------------------------------------------

    def start(self) -> None:
        """Start the per-rank FT control listener (daemon thread)."""
        self.env.process.runtime.spawn(
            self._listen(), name=f"rank{self.env.rank}.ft-listener",
            daemon=True)

    def stop(self) -> None:
        """Finalize path: withdraw the listener's pending receive and
        drop straggler control messages, so the leak audit never mistakes
        FT infrastructure for application requests.  Revocation is
        asynchronous by design — a flood message still in flight when the
        job completes is expected residue, not a leak."""
        self._stopped = True
        handle = self._listener_handle
        if handle is not None:
            self.env.progress.posted.remove(handle)
            self._listener_handle = None
        checker = self.engine.checker
        stragglers = self.env.progress.unexpected.purge(
            lambda e: e.envelope.context_id >= FT_CONTROL_CONTEXT)
        if checker.enabled:
            for entry in stragglers:
                checker.on_ft_discard(self.env.rank, entry.envelope)

    def _listen(self) -> Generator:
        progress = self.env.progress
        while not self._stopped:
            # Drain control messages that arrived while the previous one
            # was being dispatched (they land in the unexpected queue).
            entry = progress.unexpected.match(FT_CONTROL_CONTEXT,
                                              ANY_SOURCE, ANY_TAG)
            if entry is not None:
                checker = self.engine.checker
                if checker.enabled:
                    checker.on_match(entry.envelope, self.env.rank)
                self._dispatch_control(entry.data)
                continue
            handle = RecvHandle(FT_CONTROL_CONTEXT, ANY_SOURCE, ANY_TAG)
            handle.dep_describe = "ft control listener"
            self._listener_handle = handle
            progress.posted.post(handle)
            yield wait(handle)
            self._listener_handle = None
            if self._stopped or getattr(self.env.process, "dead", False):
                return
            self._dispatch_control(handle.data)

    def _dispatch_control(self, message) -> None:
        kind = message[0]
        if kind == "revoke":
            _, base_context, _origin = message
            self._apply_revoke(base_context, flood=True)
        elif kind == "coll_failed":
            _, contexts, failed_rank = message
            self._apply_coll_failed(tuple(contexts), failed_rank, flood=True)

    # -- shrink / agree --------------------------------------------------------

    def shrink(self, comm: "Communicator") -> Generator:
        """MPI_Comm_shrink: a working communicator over the survivors.

        Deterministic: survivors keep their relative order, so new rank
        = old rank minus the dead ranks before it.  Collective over the
        survivors; raises ``MPI_ERR_PROC_FAILED`` if another member dies
        during the shrink itself (call it again, as ULFM allows).
        """
        env = self.env
        # Lockstep context allocation happens unconditionally, success or
        # not — every survivor burns the same id per attempt.
        context = env.allocate_context()
        survivors = self.live_members(comm)
        yield from self._sync_barrier(survivors)
        from repro.mpi.communicator import Communicator
        from repro.mpi.group import Group
        shrunk = Communicator(env, Group(survivors), context)
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.shrinks", 1, rank=env.rank)
        return shrunk

    def agree(self, comm: "Communicator", value: int) -> Generator:
        """MPIX_Comm_agree: fault-tolerant agreement on the bitwise AND
        of every survivor's ``value``."""
        survivors = self.live_members(comm)
        result = yield from self._sync_round(survivors, int(value))
        ins = self._ins()
        if ins.enabled:
            ins.count("ft.agreements", 1, rank=self.env.rank)
        return result

    def _sync_barrier(self, survivors: list[int]) -> Generator:
        yield from self._sync_round(survivors, ~0)

    def _sync_round(self, survivors: list[int], value: int) -> Generator:
        """One gather-AND-broadcast round among ``survivors`` over the
        reserved FT_SYNC_CONTEXT (root = lowest surviving world rank)."""
        env = self.env
        self._sync_seq += 1
        tag = self._sync_seq
        world = env.comm_world
        root = survivors[0]
        if env.rank == root:
            agreed = value
            for peer in survivors[1:]:
                request = _p2p.irecv_impl(world, peer, tag, None,
                                          FT_SYNC_CONTEXT)
                contribution, _status = yield from _p2p.recv_wait(world,
                                                                  request)
                agreed &= int(contribution)
            for peer in survivors[1:]:
                yield from _p2p.send_impl(world, agreed, peer, tag,
                                          FT_MSG_BYTES, FT_SYNC_CONTEXT)
            return agreed
        yield from _p2p.send_impl(world, value, root, tag, FT_MSG_BYTES,
                                  FT_SYNC_CONTEXT)
        request = _p2p.irecv_impl(world, root, tag, None, FT_SYNC_CONTEXT)
        agreed, _status = yield from _p2p.recv_wait(world, request)
        return int(agreed)

    # -- collective wrapper ----------------------------------------------------

    def run_collective(self, comm: "Communicator", gen: Generator) -> Generator:
        """Run a user collective with FT pre-flight and failure flooding."""
        self.check_collective(comm)
        try:
            result = yield from gen
        except (MPIProcFailedError, MPIRevokedError) as exc:
            self.collective_failed(comm, exc)
            raise
        return result
