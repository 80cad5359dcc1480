"""The online MPI semantics checker (opt-in, zero-cost when disabled).

The checker is an :class:`~repro.sim.metrics.Instrumentation`-style
facade: every hook site in the stack guards with ``if checker.enabled:``
against the :data:`~repro.check.NULL_CHECKER` singleton, so a run with the checker off
pays one attribute load per hook and nothing else.  Enabled via
``EngineConfig(checker=True)`` or ``install_checker(engine)``, it shadows the protocol state of the whole
simulated cluster (the checker is engine-wide, exactly like the tracer)
and raises a structured :class:`~repro.errors.CheckViolation` the moment
an invariant breaks:

==================  =====================================================
``non-overtaking``  Messages of one (context, source, dest, tag) stream
                    matched out of send order (MPI 3.0 §3.5).
``rendezvous-       A REQUEST/SENDOK/RNDV packet observed out of the
handshake``         §4.2.2 three-way handshake order, or referencing an
                    unknown send/sync id.
``express-          A ch_mad wire message whose first block is not
ordering``          receive_EXPRESS or with a non-CHEAPER trailing block
                    (§4.2.1: the header drives subsequent unpacking).
``polling-send``    A registered polling thread performed a connection
                    send itself — the paper's §4.2.3 deadlock rule.
``reliable-         A duplicate or out-of-window sequence delivered past
window``            the transport's dedup, or an ack for a sequence that
                    was never sent (madeleine/reliable.py).
``finalize-leak``   Requests, unexpected messages, sync structures, gate
                    tickets or rendezvous transactions still live at
                    MPI_Finalize.
``revoked-          A message on a revoked communicator was matched to a
delivery``          receive (delivered to user code) after the revocation
                    reached that rank.
``dead-rank-leak``  A request referencing a dead rank (a posted receive
                    from it, or a rendezvous send towards it) survived to
                    MPI_Finalize — the FT layer failed to resolve it.
``rma-epoch``       A one-sided operation (Put/Get/Accumulate) issued
                    outside a fence epoch, or on a freed window
                    (MPI 3.0 §11.5: active target synchronization).
``rma-unfenced-     A fence completed at a target while an operation of
completion``        the closing epoch targeting it was still unapplied —
                    the fence's completion guarantee broke.
``registration-     Explicitly registered (pinned) memory — a window —
leak``              still registered at MPI_Finalize, or deregistration
                    of memory that was never registered.
``owed-time-leak``  A task that accrued CPU cost with ``CPU.owe`` and has
                    not paid it yet scheduled an event, posted to a
                    mailbox or set a flag: that action takes effect
                    earlier than the separate charges would have let it.
==================  =====================================================

The RDMA rendezvous control packets (MAD_RDMA_REQ/ACK/DATA) shadow the
same three-way handshake state machine as their packetized counterparts
— the zero-copy path earns no slack from the checker.

The disabled :data:`~repro.check.NULL_CHECKER` lives in the package
``__init__``; this module is compiled only when a checker is installed
(:func:`~repro.sim.engine.install_checker` imports it).  It imports
nothing from ``repro.madeleine`` / ``repro.mpi`` at module scope (the
enum used by the EXPRESS check is imported lazily).  The wait-for-graph
lives in
:mod:`repro.check.waitgraph` and the fuzzing harness in
:mod:`repro.check.fuzz`, both imported only by their consumers.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable

from repro.errors import CheckViolation

#: The CPU whose running task owed time last (``CPU.owe``), whichever
#: engine it belongs to: one task executes at a time and a debt never
#: outlives its time slice, so a single slot is exact — and
#: ``Mailbox.post`` / ``Flag.set`` know no engine they could ask.
_debtor: Any = None


def _tripwire(action: str, fn: Callable) -> Callable:
    """``fn``, reporting an ``owed-time-leak`` when a debtor calls it."""

    @wraps(fn)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        cpu = _debtor
        if cpu is not None and cpu.owed:
            cpu.engine.checker.owed_time_leak(cpu, action)
        return fn(*args, **kwargs)

    return guarded


def _arm_tripwires(engine: Any) -> None:
    """Put the actions others can observe behind :func:`_tripwire`.

    Installed when a checker is, so a run without one pays nothing:
    the engine's scheduling entry points are shadowed on the instance;
    ``Mailbox.post`` and ``Flag.set`` have no per-engine instance to
    shadow and are wrapped on the class, once per process.
    """
    for name in ("schedule", "schedule_at", "call_soon", "schedule_discard",
                 "schedule_clock"):
        setattr(engine, name, _tripwire(f"Engine.{name}",
                                        getattr(engine, name)))
    from repro.sim.sync import Flag, Mailbox
    for cls, name in ((Mailbox, "post"), (Flag, "set")):
        method = getattr(cls, name)
        if not hasattr(method, "__wrapped__"):
            setattr(cls, name, _tripwire(f"{cls.__name__}.{name}", method))


class Checker:
    """Live per-engine protocol checker (one per simulated cluster)."""

    enabled = True

    def __init__(self, engine: Any, raise_on_violation: bool = True):
        self.engine = engine
        #: When False, violations are recorded in :attr:`violations` but
        #: the simulation keeps running (the fuzz harness uses this to
        #: collect every violation of a seed in one run).
        self.raise_on_violation = raise_on_violation
        self.violations: list[CheckViolation] = []
        # Non-overtaking: per-stream send counters, a side table mapping
        # the in-flight envelope (by identity — envelopes travel by
        # reference end-to-end) to its stream position, and per-stream
        # match counters.  Stream key: (context, src, dst, tag).
        self._sent_next: dict[tuple, int] = {}
        self._in_flight: dict[int, tuple] = {}   # id(env) -> (env, key, seq)
        self._matched_next: dict[tuple, int] = {}
        # Rendezvous handshake: send_id -> (state, sender, receiver), plus
        # the sync_id -> send_id map learned from SENDOK packets.
        self._rndv: dict[int, tuple[str, int, int]] = {}
        self._sync_to_send: dict[int, int] = {}
        # FT-aborted sends: send_id -> handshake state (on_ft_abort_send).
        self._aborted_rndv: dict[int, str | None] = {}
        # §4.2.3 polling discipline: registered polling-thread tasks.
        self._pollers: dict[Any, str] = {}
        # Reliable transport shadow window:
        # (channel_id, src_rank, dst_rank) -> next sequence expected to be
        # posted into the port's incoming queue.
        self._recv_window: dict[tuple[int, int, int], int] = {}
        #: Packets observed per MadPktType name (diagnostics).
        self.packets_seen: dict[str, int] = {}
        # Fault tolerance: ranks killed by the DeathController, and the
        # base context ids each rank has seen revoked (rank -> set).
        self.dead_ranks: set[int] = set()
        self._revoked: dict[int, set[int]] = {}
        # One-sided (RMA) shadow state: explicitly pinned regions
        # ((rank, key) -> nbytes), per-(rank, window) fence counts,
        # freed windows, and outstanding operations
        # (op_uid -> (win_id, origin, target, issue_epoch)).
        self._registrations: dict[tuple, int] = {}
        self._win_epochs: dict[tuple[int, int], int] = {}
        self._win_freed: set[tuple[int, int]] = set()
        self._rma_outstanding: dict[Any, tuple[int, int, int, int]] = {}
        # Owed CPU time: which rank each process CPU belongs to.
        self._cpu_ranks: dict[Any, int] = {}
        _arm_tripwires(engine)

    # -- violation plumbing ------------------------------------------------

    def _violate(self, invariant: str, rank: int | None, details: str,
                 connection: str | None = None) -> None:
        violation = CheckViolation(invariant, rank, details,
                                   connection=connection,
                                   time=self.engine.now)
        self.violations.append(violation)
        self.engine.tracer.emit(
            "check.violation", invariant=invariant,
            rank=-1 if rank is None else rank,
            connection=connection or "", details=details,
        )
        if self.raise_on_violation:
            raise violation

    # -- owed CPU time (sim/cpu.py) ----------------------------------------

    def register_cpu(self, cpu: Any, rank: int) -> None:
        """``cpu`` runs the threads of ``rank`` (MadProcess creation)."""
        self._cpu_ranks[cpu] = rank

    def on_owe(self, cpu: Any) -> None:
        """``cpu``'s running task accrued cost it has yet to pay."""
        global _debtor
        _debtor = cpu

    def owed_time_leak(self, cpu: Any, action: str) -> None:
        """A tripwire fired: the debtor on ``cpu`` is doing ``action``."""
        self._violate(
            "owed-time-leak", self._cpu_ranks.get(cpu),
            f"{action} from task {cpu.current.name!r}, which still owes "
            f"{cpu.owed} ns of CPU time: the action takes effect that much "
            "too early (pay first — end_packing, end_unpacking or any "
            "system call)")

    # -- non-overtaking (ADI / point2point) --------------------------------

    def on_send(self, envelope: Any, dest_world: int) -> None:
        """A message entered the wire-order stream (send gate passed)."""
        key = (envelope.context_id, envelope.source, dest_world,
               envelope.tag)
        seq = self._sent_next.get(key, 0)
        self._sent_next[key] = seq + 1
        self._in_flight[id(envelope)] = (envelope, key, seq)

    def on_match(self, envelope: Any, rank: int) -> None:
        """A message was matched to a receive (posted or unexpected)."""
        revoked = self._revoked.get(rank)
        if revoked:
            from repro.mpi.constants import (CONTEXTS_PER_COMM,
                                             FT_CONTROL_CONTEXT)
            ctx = envelope.context_id
            if ctx < FT_CONTROL_CONTEXT \
                    and ctx - (ctx % CONTEXTS_PER_COMM) in revoked:
                self._violate(
                    "revoked-delivery", rank,
                    f"message src={envelope.source} tag={envelope.tag} "
                    f"ctx={ctx} delivered to user code after rank {rank} "
                    "saw the communicator revoked")
                return
        entry = self._in_flight.pop(id(envelope), None)
        if entry is None:
            # A device that clones envelopes (none today) or a message the
            # checker never saw sent — nothing to verify.
            return
        _env, key, seq = entry
        expected = self._matched_next.get(key, 0)
        self._matched_next[key] = max(expected, seq) + 1
        if seq != expected:
            ctx, src, dst, tag = key
            self._violate(
                "non-overtaking", rank,
                f"message #{seq} of stream src={src} dst={dst} tag={tag} "
                f"ctx={ctx} matched before message #{expected}",
                connection=f"{src}->{dst}/tag{tag}",
            )

    # -- rendezvous handshake (ch_mad) -------------------------------------

    #: The RDMA rendezvous packets play the same handshake roles as the
    #: packetized ones: request, acknowledgement, data.
    _RNDV_KIND_ALIASES = {
        "MAD_RDMA_REQ_PKT": "MAD_REQUEST_PKT",
        "MAD_RDMA_ACK_PKT": "MAD_SENDOK_PKT",
        "MAD_RDMA_DATA_PKT": "MAD_RNDV_PKT",
    }

    def on_chmad_send(self, src: int, dst: int, header: Any) -> None:
        """A ch_mad packet leaves its origin (once, pre-forwarding)."""
        kind = header.pkt_type.name
        self.packets_seen[kind] = self.packets_seen.get(kind, 0) + 1
        kind = self._RNDV_KIND_ALIASES.get(kind, kind)
        conn = f"{src}->{dst}"
        if kind == "MAD_REQUEST_PKT":
            if header.send_id in self._rndv:
                self._violate("rendezvous-handshake", src,
                              f"duplicate MAD_REQUEST_PKT for send_id "
                              f"{header.send_id}", connection=conn)
                return
            self._rndv[header.send_id] = ("requested", src, dst)
        elif kind == "MAD_SENDOK_PKT":
            entry = self._rndv.get(header.send_id)
            if entry is None:
                if self._late_packet(header.send_id, "request-received",
                                     "acked"):
                    return
                self._violate("rendezvous-handshake", src,
                              f"MAD_SENDOK_PKT for unknown send_id "
                              f"{header.send_id}", connection=conn)
                return
            state, sender, receiver = entry
            if state != "request-received" or src != receiver:
                self._violate(
                    "rendezvous-handshake", src,
                    f"MAD_SENDOK_PKT for send_id {header.send_id} in state "
                    f"{state!r} (expected 'request-received' acked by rank "
                    f"{receiver})", connection=conn)
                return
            self._rndv[header.send_id] = ("acked", sender, receiver)
            self._sync_to_send[header.sync_id] = header.send_id
        elif kind == "MAD_RNDV_PKT":
            send_id = self._sync_to_send.get(header.sync_id)
            entry = self._rndv.get(send_id) if send_id is not None else None
            if entry is None:
                self._violate("rendezvous-handshake", src,
                              f"MAD_RNDV_PKT for unknown sync_id "
                              f"{header.sync_id}", connection=conn)
                return
            state, sender, receiver = entry
            if state != "ack-received":
                self._violate(
                    "rendezvous-handshake", src,
                    f"MAD_RNDV_PKT for send_id {send_id} in state {state!r} "
                    "(data sent before the acknowledgement arrived)",
                    connection=conn)
                return
            self._rndv[send_id] = ("data-sent", sender, receiver)

    def on_chmad_recv(self, rank: int, header: Any) -> None:
        """A ch_mad packet reached its final destination's dispatcher."""
        kind = self._RNDV_KIND_ALIASES.get(header.pkt_type.name,
                                           header.pkt_type.name)
        if kind == "MAD_REQUEST_PKT":
            entry = self._rndv.get(header.send_id)
            if entry is None and self._late_packet(
                    header.send_id, "requested", "request-received"):
                return
            if entry is None or entry[0] != "requested":
                state = entry[0] if entry else "unknown"
                self._violate("rendezvous-handshake", rank,
                              f"MAD_REQUEST_PKT for send_id {header.send_id} "
                              f"received in state {state!r}")
                return
            self._rndv[header.send_id] = ("request-received",
                                          entry[1], entry[2])
        elif kind == "MAD_SENDOK_PKT":
            entry = self._rndv.get(header.send_id)
            if entry is None and self._late_packet(header.send_id, "acked",
                                                   None):
                return
            if entry is None or entry[0] != "acked":
                state = entry[0] if entry else "unknown"
                self._violate("rendezvous-handshake", rank,
                              f"MAD_SENDOK_PKT for send_id {header.send_id} "
                              f"received in state {state!r}")
                return
            self._rndv[header.send_id] = ("ack-received",
                                          entry[1], entry[2])
        elif kind == "MAD_RNDV_PKT":
            send_id = self._sync_to_send.get(header.sync_id)
            entry = self._rndv.get(send_id) if send_id is not None else None
            if entry is None or entry[0] != "data-sent":
                state = entry[0] if entry else "unknown"
                self._violate("rendezvous-handshake", rank,
                              f"MAD_RNDV_PKT for sync_id {header.sync_id} "
                              f"received in state {state!r}")
                return
            del self._rndv[send_id]
            del self._sync_to_send[header.sync_id]

    # -- EXPRESS/CHEAPER flag discipline (ch_mad wire format) --------------

    def on_chmad_wire(self, rank: int, protocol: str, wire: Any) -> None:
        """Block-mode layout of one ch_mad wire message (§4.2.1).

        Scoped to ch_mad: raw Madeleine applications may legally pack any
        block layout; the *device's* wire contract is EXPRESS header then
        CHEAPER body.
        """
        from repro.madeleine.constants import ReceiveMode
        blocks = wire.blocks
        conn = f"{protocol}:{wire.source_rank}->{rank}"
        if not blocks:
            self._violate("express-ordering", rank,
                          "ch_mad wire message with no blocks",
                          connection=conn)
            return
        if blocks[0].receive_mode is not ReceiveMode.EXPRESS:
            self._violate(
                "express-ordering", rank,
                f"header block sent {blocks[0].receive_mode.value}, ch_mad "
                "requires receive_EXPRESS (the header drives unpacking)",
                connection=conn)
            return
        for index, block in enumerate(blocks[1:], start=1):
            if block.receive_mode is not ReceiveMode.CHEAPER:
                self._violate(
                    "express-ordering", rank,
                    f"body block #{index} sent {block.receive_mode.value}, "
                    "ch_mad bodies must be receive_CHEAPER",
                    connection=conn)
                return

    # -- polling-thread send discipline (§4.2.3) ---------------------------

    def register_poller(self, task: Any, source_name: str) -> None:
        """Record a persistent polling thread (PollingThread spawn)."""
        self._pollers[task] = source_name

    def on_transmit(self, conn: Any, task: Any) -> None:
        """A Madeleine connection transmission, charged to ``task``."""
        if task is None:
            return
        source = self._pollers.get(task)
        if source is not None:
            channel = conn.port.channel
            self._violate(
                "polling-send", conn.port.rank,
                f"polling thread of source {source!r} performed a send "
                "itself — §4.2.3: a polling thread must never proceed to a "
                "send operation (spawn a temporary thread)",
                connection=f"{channel.name}:{conn.port.rank}->"
                           f"{conn.remote_rank}")

    # -- reliable transport window (madeleine/reliable.py) -----------------

    def on_wire_deliver(self, port: Any, src: int, seq: int) -> None:
        """The transport is about to post ``seq`` to the port's queue."""
        key = (port.channel.id, src, port.rank)
        expected = self._recv_window.get(key, 0)
        self._recv_window[key] = max(expected, seq + 1)
        if seq != expected:
            kind = ("duplicate delivery" if seq < expected
                    else f"gap (skipped {seq - expected} message(s))")
            self._violate(
                "reliable-window", port.rank,
                f"sequence {seq} posted where {expected} was expected: "
                f"{kind}",
                connection=f"{port.channel.name}:{src}->{port.rank}")

    def on_ack(self, conn: Any, ack_seq: int) -> None:
        """An acknowledgement reached the sender-side connection."""
        if ack_seq >= conn._send_seq:
            channel = conn.port.channel
            self._violate(
                "reliable-window", conn.port.rank,
                f"ack for sequence {ack_seq}, but only {conn._send_seq} "
                "message(s) were ever sent on this connection",
                connection=f"{channel.name}:{conn.remote_rank}->"
                           f"{conn.port.rank}")

    # -- fault-tolerance bookkeeping ---------------------------------------

    def on_rank_dead(self, rank: int) -> None:
        """The DeathController killed ``rank``: its state is unauditable
        (finalize skips it) and survivors' references to it must resolve."""
        self.dead_ranks.add(rank)

    def on_revoke(self, rank: int, contexts: Any) -> None:
        """``rank`` learned of a revocation covering ``contexts`` (the
        base context id and the hidden collective context)."""
        from repro.mpi.constants import CONTEXTS_PER_COMM
        revoked = self._revoked.setdefault(rank, set())
        for ctx in contexts:
            revoked.add(ctx - (ctx % CONTEXTS_PER_COMM))

    def on_ft_discard(self, rank: int, envelope: Any, send_id: int = 0) -> None:
        """The FT layer dropped an arrival (dead source / revoked or
        failed context) before user code could see it: retire the shadow
        state so the discard is not reported as a leak."""
        self._in_flight.pop(id(envelope), None)
        self._drop_rndv(send_id)

    def on_ft_abort_send(self, rank: int, send_id: int) -> None:
        """The FT layer aborted an in-flight rendezvous send.  A live
        receiver unaware of it may still take the request and send its one
        SENDOK (counted as ``ft.stale_acks``): the entry's state is kept
        as a tombstone that :meth:`_late_packet` walks to its end once."""
        entry = self._rndv.get(send_id)
        self._drop_rndv(send_id)
        if entry is not None:
            self._aborted_rndv[send_id] = entry[0]

    def _late_packet(self, send_id: int, state: str,
                     new_state: str | None) -> bool:
        """Accept a handshake packet of an aborted send whose tombstone is
        in ``state``; it moves on to ``new_state`` (None: done)."""
        if self._aborted_rndv.get(send_id) != state:
            return False
        self._aborted_rndv[send_id] = new_state
        return True

    def _drop_rndv(self, send_id: int) -> None:
        if not send_id:
            return
        self._rndv.pop(send_id, None)
        self._aborted_rndv.pop(send_id, None)
        for sync_id, mapped in list(self._sync_to_send.items()):
            if mapped == send_id:
                del self._sync_to_send[sync_id]

    # -- one-sided (RMA) epoch discipline and registration audit -----------

    def on_mem_register(self, rank: int | None, key: Any, nbytes: int) -> None:
        """Memory pinned explicitly (window lifetime; not the LRU cache).

        Registration-cache entries are deregistered lazily by eviction —
        their lifetime is the cache's business, so they are *not*
        reported here and their owners must not call this hook."""
        self._registrations[(rank, key)] = nbytes

    def on_mem_deregister(self, rank: int | None, key: Any) -> None:
        """Explicitly pinned memory released."""
        if self._registrations.pop((rank, key), None) is None:
            self._violate(
                "registration-leak", rank,
                f"deregistration of memory {key!r} that was never "
                "registered")

    def on_win_create(self, rank: int, win_id: int) -> None:
        """One rank's side of a window came up (MPI_Win_create)."""
        self._win_epochs[(rank, win_id)] = 0
        self._win_freed.discard((rank, win_id))

    def on_win_fence(self, rank: int, win_id: int) -> None:
        """``rank`` opened a new fence epoch on ``win_id``."""
        state = self._win_epochs.get((rank, win_id))
        if state is None or (rank, win_id) in self._win_freed:
            self._violate("rma-epoch", rank,
                          f"fence on unknown or freed window {win_id}")
            return
        self._win_epochs[(rank, win_id)] = state + 1

    def on_rma_op(self, origin: int, win_id: int, op: str, target: int,
                  op_uid: Any) -> None:
        """``origin`` issued one Put/Get/Accumulate towards ``target``."""
        epoch = self._win_epochs.get((origin, win_id))
        if epoch is None or (origin, win_id) in self._win_freed or epoch == 0:
            self._violate(
                "rma-epoch", origin,
                f"{op} on window {win_id} towards rank {target} issued "
                + ("outside any fence epoch" if epoch == 0
                   else "on an unknown or freed window"),
                connection=f"{origin}->{target}")
            return
        self._rma_outstanding[op_uid] = (win_id, origin, target, epoch)

    def on_rma_apply(self, rank: int, win_id: int, op_uid: Any) -> None:
        """The operation took effect (target applied it, or origin's get
        landed)."""
        self._rma_outstanding.pop(op_uid, None)

    def on_win_fence_complete(self, rank: int, win_id: int) -> None:
        """``rank``'s fence returned: every op of the epoch it closes that
        targets ``rank`` must already be applied (fence-ordered
        completion).  Ops of the *next* epoch, issued by origins that
        already passed their own fence, are legitimately in flight."""
        epoch = self._win_epochs.get((rank, win_id), 0)
        for op_uid, entry in sorted(self._rma_outstanding.items(),
                                    key=lambda item: str(item[0])):
            wid, origin, target, issue_epoch = entry
            if wid == win_id and target == rank and issue_epoch <= epoch \
                    and origin not in self.dead_ranks:
                self._violate(
                    "rma-unfenced-completion", rank,
                    f"fence on window {win_id} completed with op {op_uid} "
                    f"from rank {origin} (epoch {issue_epoch}) not yet "
                    "applied", connection=f"{origin}->{rank}")

    def on_win_free(self, rank: int, win_id: int) -> None:
        """One rank's side of a window went down (MPI_Win_free)."""
        self._win_freed.add((rank, win_id))

    # -- finalize leak checks ----------------------------------------------

    def on_finalize(self, env: Any) -> None:
        """Per-rank leak audit, run by MPI_Finalize before teardown."""
        progress = env.progress
        rank = env.rank
        if rank in self.dead_ranks:
            # A killed rank's queues hold whatever the death interrupted;
            # there is no leak discipline to audit on a corpse.
            return
        if self.dead_ranks:
            # FT invariant first, with its own name: nothing still alive
            # may reference a dead rank.
            for handle in progress.posted:
                if handle.source_pattern in self.dead_ranks:
                    self._violate(
                        "dead-rank-leak", rank,
                        f"receive from dead rank {handle.source_pattern} "
                        f"(ctx={handle.context_id}) still posted at "
                        "MPI_Finalize — never failed with "
                        "MPI_ERR_PROC_FAILED")
            for send_id, shandle in progress.pending_sends.items():
                if shandle.dest_world in self.dead_ranks:
                    self._violate(
                        "dead-rank-leak", rank,
                        f"rendezvous send {send_id} towards dead rank "
                        f"{shandle.dest_world} still pending at "
                        "MPI_Finalize")
            for handle in progress.sync_registry.values():
                source = handle.rndv_source
                if source in self.dead_ranks:
                    self._violate(
                        "dead-rank-leak", rank,
                        f"rendezvous sync for dead sender {source} still "
                        "armed at MPI_Finalize")
        posted = len(progress.posted)
        if posted:
            self._violate("finalize-leak", rank,
                          f"{posted} receive(s) still posted at "
                          "MPI_Finalize (irecv never completed)")
        unexpected = len(progress.unexpected)
        if unexpected:
            self._violate(
                "finalize-leak", rank,
                f"{unexpected} unexpected message(s) never received "
                f"({progress.unexpected.buffered_bytes} buffered byte(s))")
        if progress.sync_registry:
            self._violate("finalize-leak", rank,
                          f"{len(progress.sync_registry)} rendezvous sync "
                          "structure(s) leaked (data packet never arrived)")
        from repro.mpi.constants import FT_CONTROL_CONTEXT
        for (context_id, dest), gate in progress.send_gates.items():
            if gate.depth and context_id < FT_CONTROL_CONTEXT:
                # FT control floods are asynchronous by design: one may
                # legitimately still be mid-send when the job completes.
                self._violate(
                    "finalize-leak", rank,
                    f"send gate ctx={context_id} dest={dest} still holds "
                    f"{gate.depth} unreleased ticket(s)")
        pending = progress.pending_sends
        if pending:
            self._violate("finalize-leak", rank,
                          f"{len(pending)} rendezvous send(s) never "
                          "acknowledged (send_ids "
                          f"{sorted(pending)})")
        leaked = sorted(((key, nbytes) for (reg_rank, key), nbytes
                         in self._registrations.items()
                         if reg_rank == rank),
                        key=lambda item: str(item[0]))
        for key, nbytes in leaked:
            self._violate(
                "registration-leak", rank,
                f"{nbytes}-byte registration {key!r} still pinned at "
                "MPI_Finalize (window never freed?)")

    def on_world_finalize(self) -> None:
        """Cluster-wide residue audit after every rank finalized.

        Shadow state touching a dead rank is exempt: a handshake or an
        in-flight message the death interrupted is the *expected* residue
        of a kill, and the per-rank audits already proved no live request
        still references the corpse.
        """
        live_rndv = {
            send_id: entry for send_id, entry in self._rndv.items()
            if entry[1] not in self.dead_ranks
            and entry[2] not in self.dead_ranks
        }
        if live_rndv:
            send_id, (state, sender, receiver) = next(iter(
                sorted(live_rndv.items())))
            self._violate(
                "finalize-leak", sender,
                f"{len(live_rndv)} rendezvous handshake(s) incomplete at "
                f"finalize (first: send_id {send_id} in state {state!r})",
                connection=f"{sender}->{receiver}")
        from repro.mpi.constants import FT_CONTROL_CONTEXT
        live_flight = [
            (key, seq) for _env, key, seq in self._in_flight.values()
            if key[1] not in self.dead_ranks and key[2] not in self.dead_ranks
            and key[0] < FT_CONTROL_CONTEXT
        ]
        if live_flight:
            (ctx, src, dst, tag), seq = sorted(live_flight)[0]
            self._violate(
                "finalize-leak", src,
                f"{len(live_flight)} message(s) sent but never matched "
                f"to a receive (first: stream src={src} dst={dst} tag={tag} "
                f"ctx={ctx} message #{seq})",
                connection=f"{src}->{dst}/tag{tag}")
