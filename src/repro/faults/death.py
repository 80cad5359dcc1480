"""Process death: killing a rank, and *detecting* that it died.

A :class:`~repro.faults.plan.NodeDeath` entry in a fault plan names the
world rank of a victim and the nanosecond it dies.  The
:class:`DeathController` executes the sentence: it kills every Marcel
thread of the process and silences its NICs on every fabric.  Nothing is
announced — the survivors' only evidence is the wire going dark, exactly
the failure model of a crashed node.

The :class:`FailureDetector` turns that silence into a *declaration*.
Liveness evidence is free: every delivery that reaches a process — data,
acks, heartbeats — proves its source was alive when it transmitted, so
detection piggybacks on normal traffic and only needs the ch_mad
low-rate heartbeat to cover idle periods.  When the reliable transport
exhausts a connection's retries, the detector adjudicates between two
very different diagnoses:

- **peer death** — the remote rank has been silent on *every* channel for
  longer than ``suspect_after``: declare it dead and escalate to MPI
  (``MPI_ERR_PROC_FAILED``), never to channel failover.
- **channel death** — we heard from the rank recently (within
  ``fresh_window``) on *some* path, so the rank is alive and this
  channel is broken: hand the failure to the PR-2
  :class:`~repro.madeleine.reliable.ChannelHealthMonitor` machinery.
- **undecided** — silence is growing but has not reached the threshold:
  keep retransmitting.  This terminates — either an ack/heartbeat
  refreshes the peer (→ channel verdict) or silence crosses the
  threshold (→ death verdict).

The simulator keeps one detector per session (failure knowledge is
"gossiped" instantly between survivors): declarations are global, which
is what makes ``shrink()``'s survivor sets trivially consistent.  The
per-rank *detection latency* — death time to declaration time — is still
honest, and is exported as the ``ft.detection_latency_ns`` histogram.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.errors import TransportError
    from repro.faults.plan import FaultPlan
    from repro.madeleine.channel import Connection
    from repro.madeleine.session import MadeleineSession, MadProcess
    from repro.sim.engine import Engine

#: Default ch_mad heartbeat period (ns).  Well under ``SUSPECT_AFTER_NS``
#: so several beats are lost before anyone is suspected.
HEARTBEAT_INTERVAL_NS = 2_000_000

#: Silence (ns, across *all* channels) after which a rank whose
#: connection exhausted its retries is declared dead.  Comfortably above
#: a full retry exhaust (~13-30 ms worth of backoff shares its window
#: with heartbeats arriving every 2 ms, so a live peer always refreshes).
SUSPECT_AFTER_NS = 10_000_000

#: A rank heard from within this window (ns) is definitely alive: a
#: retry-exhausted connection to it is a *channel* problem (failover).
FRESH_WINDOW_NS = 5_000_000

#: How long the simulated OS takes to reap a dead process sharing an SMP
#: node with a survivor (ns).  Node-local death detection cannot come
#: from network silence — the shared-memory device has no timeouts — so
#: the node-mate learns it from the OS, fast.
LOCAL_REAP_NS = 50_000

#: Verdicts of :meth:`FailureDetector.on_transport_failure`.
PEER_DEAD = "peer-dead"
CHANNEL_SUSPECT = "channel"
KEEP_RETRYING = "retry"


class FailureDetector:
    """Session-wide peer-death detector (piggyback liveness + timeouts)."""

    def __init__(self, engine: "Engine", session: "MadeleineSession",
                 heartbeat_interval: int = HEARTBEAT_INTERVAL_NS,
                 suspect_after: int = SUSPECT_AFTER_NS,
                 fresh_window: int = FRESH_WINDOW_NS):
        self.engine = engine
        self.session = session
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after
        self.fresh_window = fresh_window
        #: rank -> last virtual time any delivery from it was received.
        self.last_heard: dict[int, int] = {}
        #: Ranks *declared* dead (what survivors know).
        self.dead_ranks: set[int] = set()
        #: rank -> actual death time (ground truth, for latency metrics).
        self.death_times: dict[int, int] = {}
        #: Called with the dead world rank after each declaration
        #: (registered by the MPI FT layer, one per rank's env).
        self._listeners: list[Callable[[int], None]] = []

    # -- liveness evidence ---------------------------------------------------

    def heard_from(self, rank: int) -> None:
        """Any delivery from ``rank`` arrived: it was alive when it sent."""
        self.last_heard[rank] = self.engine.now

    def silent_for(self, rank: int) -> int:
        return self.engine.now - self.last_heard.get(rank, 0)

    def add_listener(self, listener: Callable[[int], None]) -> None:
        self._listeners.append(listener)

    # -- ground truth (DeathController only) ---------------------------------

    def rank_killed(self, rank: int) -> None:
        """Record the actual moment of death (not a declaration)."""
        self.death_times.setdefault(rank, self.engine.now)

    # -- declaration ---------------------------------------------------------

    def declare_dead(self, rank: int, reason: str) -> None:
        """Declare ``rank`` dead: drain its traffic, notify the MPI layer.

        Idempotent; all follow-up work (listener fan-out) runs from fresh
        engine callbacks so a declaration made inside a timer callback or
        a polling thread never runs MPI failure handling re-entrantly.
        """
        if rank in self.dead_ranks:
            return
        self.dead_ranks.add(rank)
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("ft.peer_deaths", 1, reason=reason)
            died_at = self.death_times.get(rank)
            if died_at is not None:
                ins.observe("ft.detection_latency_ns",
                            self.engine.now - died_at, reason=reason)
        # One record per declaration: with instrumentation on, the
        # facade's tracer *is* engine.tracer.
        self.engine.tracer.emit("ft.peer_death", rank=rank, reason=reason,
                                silent_ns=self.silent_for(rank))
        self._drain_traffic_toward(rank)
        for listener in list(self._listeners):
            self.engine.call_soon(listener, rank)

    def _drain_traffic_toward(self, rank: int) -> None:
        """Cancel every survivor's unacked transport traffic to ``rank``.

        Retransmitting into a dead NIC is pointless and would keep timer
        noise alive until finalize; the MPI layer fails the corresponding
        operations with ``MPI_ERR_PROC_FAILED`` instead.
        """
        for process in self.session.processes:
            if getattr(process, "dead", False) or process.rank == rank:
                continue
            if process.transport is None:
                continue
            for port in process._ports_by_channel.values():
                conn = port._connections.get(rank)
                if conn is None or not conn.unacked:
                    continue
                for pending in conn.unacked.values():
                    pending.cancel_timer()
                conn.unacked.clear()

    # -- adjudication --------------------------------------------------------

    def on_transport_failure(self, conn: "Connection",
                             error: "TransportError") -> str:
        """Adjudicate a retry-exhausted connection: peer or channel?

        Returns :data:`PEER_DEAD` (traffic already drained, do *not*
        fail the channel over), :data:`CHANNEL_SUSPECT` (run the normal
        channel-death machinery), or :data:`KEEP_RETRYING`.
        """
        remote = conn.remote_rank
        if remote in self.dead_ranks:
            self._drain_traffic_toward(remote)
            return PEER_DEAD
        silent = self.silent_for(remote)
        if silent >= self.suspect_after:
            self.declare_dead(remote, reason="timeout")
            return PEER_DEAD
        if silent <= self.fresh_window:
            return CHANNEL_SUSPECT
        return KEEP_RETRYING

    def on_unreachable(self, rank: int) -> None:
        """No surviving channel reaches ``rank``: ULFM calls that dead."""
        self.declare_dead(rank, reason="unreachable")


class DeathController:
    """Executes a plan's :class:`~repro.faults.plan.NodeDeath` entries."""

    def __init__(self, engine: "Engine", session: "MadeleineSession",
                 plan: "FaultPlan", detector: FailureDetector,
                 node_of_rank: dict[int, int] | None = None):
        self.engine = engine
        self.session = session
        self.detector = detector
        #: world rank -> node index, for the node-local OS reap below.
        self.node_of_rank = node_of_rank or {}
        for death in plan.deaths:
            engine.schedule_at(death.at, self.kill_rank, death.rank)

    def kill_rank(self, rank: int) -> None:
        """Kill ``rank`` now: silence its NICs, destroy its threads."""
        process: "MadProcess" = self.session.processes[rank]
        if getattr(process, "dead", False):
            return
        process.dead = True
        # The NICs go dark first: anything a dying finally-block still
        # tries to transmit vanishes at the fabric, never on the wire.
        for endpoint in process._endpoints.values():
            endpoint.adapter.dead = True
        if process.transport is not None:
            process.transport.cancel_pending()
        ins = self.engine.instruments
        if ins.enabled:
            ins.count("faults.node_deaths", 1)
        self.engine.tracer.emit("fault.node_death", rank=rank)
        for task in list(process.runtime.cpu.live_tasks()):
            task.kill()
        self.detector.rank_killed(rank)
        checker = self.engine.checker
        if checker.enabled:
            checker.on_rank_dead(rank)
        self._schedule_local_reap(rank)

    def _schedule_local_reap(self, rank: int) -> None:
        """A surviving node-mate learns of the death from the OS, fast.

        Shared-memory traffic has no timeouts, so without this an SMP
        neighbour (e.g. the PR-6 hierarchical family's node leader dying
        under its followers) would only learn of the death through
        *inter*-node silence it may never be waiting on.
        """
        node = self.node_of_rank.get(rank)
        if node is None:
            return
        mates = [
            r for r, n in self.node_of_rank.items()
            if n == node and r != rank
            and not getattr(self.session.processes[r], "dead", False)
        ]
        if mates:
            self.engine.schedule(LOCAL_REAP_NS, self.detector.declare_dead,
                                 rank, "local-reap")
