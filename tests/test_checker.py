"""The online semantics checker (repro.check): plants and positives.

Every negative test plants one *real* protocol bug — a forged packet, a
send from a polling thread, a receive cycle, a leaked request — and
asserts the checker reports the right invariant, rank and connection.
The positive tests pin the opposite: correct runs are violation-free and
the disabled checker is the inert null object.
"""

from types import SimpleNamespace

import pytest

from repro.check import NULL_CHECKER, CheckViolation
from repro.cluster import ClusterConfig, MPIWorld, NodeSpec
from repro.errors import DeadlockError, MPIRevokedError
from repro.madeleine import MadeleineSession
from repro.madeleine.constants import (
    RECEIVE_CHEAPER,
    RECEIVE_EXPRESS,
    SEND_CHEAPER,
)
from repro.madeleine.message import MadWireMessage, PackedBlock
from repro.madeleine.reliable import MadAck
from repro.marcel import PollingThread
from repro.mpi.adi.packets import Envelope, RndvToken
from repro.mpi.devices.ch_mad.packets import ChMadHeader, MadPktType
from repro.sim import Engine, Mailbox
from repro.sim.coroutines import sleep
from repro.sim.engine import EngineConfig, install_checker
from repro.units import us
from tests.helpers import linear_cluster


def fresh_checker(raise_on_violation=False):
    return install_checker(Engine(),
                           raise_on_violation=raise_on_violation)


# ---------------------------------------------------------------------------
# positives: clean runs stay clean, the null checker stays inert
# ---------------------------------------------------------------------------

def test_default_checker_is_the_null_object():
    engine = Engine()
    assert engine.checker is NULL_CHECKER
    assert not engine.checker.enabled
    assert engine.checker.violations == ()
    # Any hook call on the disabled checker is a harmless no-op.
    assert engine.checker.on_send(object(), 0) is None
    assert engine.checker.anything_at_all() is None


def test_clean_run_has_no_violations():
    world = MPIWorld(linear_cluster(2, networks=("sisci",)))
    checker = install_checker(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        peer = 1 - comm.rank
        if comm.rank == 0:
            yield from comm.send((1, 2), dest=peer, tag=4, size=64)
            # A rendezvous-sized message walks the full §4.2.2 handshake.
            yield from comm.send(b"big", dest=peer, tag=4, size=60_000)
            data, _ = yield from comm.recv(source=peer, tag=5)
            return data
        a, _ = yield from comm.recv(source=peer, tag=4)
        b, _ = yield from comm.recv(source=peer, tag=4)
        yield from comm.send("done", dest=peer, tag=5, size=16)
        return (a, b)

    results = world.run(program)
    assert results[1] == ((1, 2), b"big")
    assert checker.violations == []
    assert checker.packets_seen["MAD_REQUEST_PKT"] == 1
    assert checker.packets_seen["MAD_SENDOK_PKT"] == 1
    assert checker.packets_seen["MAD_RNDV_PKT"] == 1


# ---------------------------------------------------------------------------
# plant: rendezvous handshake misordering
# ---------------------------------------------------------------------------

def test_forged_sendok_names_rank_and_connection():
    world = MPIWorld(linear_cluster(2, networks=("sisci",)))
    install_checker(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 1:
            # A SENDOK for a send_id no REQUEST ever announced: the §4.2.2
            # handshake ran backwards.
            device = mpi.inter_device
            token = RndvToken(device, requester_world=0, send_id=999_999)
            yield from device.send_rndv_ack(token, sync_id=7)
        else:
            yield from comm.recv(source=1, tag=0)

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "rendezvous-handshake"
    assert violation.rank == 1
    assert violation.connection == "1->0"
    assert "999999" in violation.details


def test_sendok_before_request_arrives_is_flagged():
    checker = fresh_checker()
    envelope = Envelope(context_id=0, source=0, tag=1, size=50_000)
    checker.on_chmad_send(
        0, 1, ChMadHeader(MadPktType.MAD_REQUEST_PKT, envelope=envelope,
                          send_id=3))
    # The receiver acknowledges before its dispatcher saw the request —
    # exactly the reordering a broken transport would produce.
    checker.on_chmad_send(
        1, 0, ChMadHeader(MadPktType.MAD_SENDOK_PKT, send_id=3, sync_id=9))
    assert [v.invariant for v in checker.violations] == [
        "rendezvous-handshake"]
    assert checker.violations[0].rank == 1
    assert "'requested'" in checker.violations[0].details


@pytest.mark.parametrize("revoke_after_us", [2, 15],
                         ids=["request-in-flight", "sendok-in-flight"])
def test_genuine_late_sendok_after_ft_abort_is_accepted_once(revoke_after_us):
    """The sender revokes between REQUEST and SENDOK; the receiver, alive
    and not yet aware, still answers.  That one SENDOK (and a request
    still in flight) is legal — the ADI counts it as ``ft.stale_acks`` —
    but a second SENDOK for the aborted send is not."""
    config = ClusterConfig(nodes=[NodeSpec(f"n{i}", networks=("sisci",))
                                  for i in range(2)], ft=True)
    world = MPIWorld(config, engine_config=EngineConfig(
        checker=True, checker_raise=False, instrumentation=True))
    aborted = []

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 1:
            with pytest.raises(MPIRevokedError):
                yield from comm.recv(source=0, tag=1, size=100_000)
            return
        request = comm.issend(b"x", dest=1, tag=1, size=100_000)
        yield sleep(us(revoke_after_us))
        aborted.extend(mpi.progress.pending_sends)
        comm.revoke()
        with pytest.raises(MPIRevokedError):
            yield from request.wait()
        yield sleep(us(100))  # the straggler SENDOK lands

    world.run(program)
    checker = world.engine.checker
    assert checker.violations == []
    assert world.engine.instruments.metrics.total("ft.stale_acks") == 1
    (send_id,) = aborted
    again = ChMadHeader(MadPktType.MAD_SENDOK_PKT, send_id=send_id, sync_id=1)
    checker.on_chmad_send(1, 0, again)
    checker.on_chmad_recv(0, again)
    assert [(v.invariant, v.rank) for v in checker.violations] == [
        ("rendezvous-handshake", 1), ("rendezvous-handshake", 0)]


# ---------------------------------------------------------------------------
# plant: a polling thread that sends (§4.2.3)
# ---------------------------------------------------------------------------

def test_send_inside_polling_handler_is_flagged():
    session = MadeleineSession()
    session.add_fabric("sisci")
    p0 = session.add_process(networks=("sisci",))
    p1 = session.add_process(networks=("sisci",))
    channel = session.new_channel("main", "sisci")
    install_checker(session.engine)
    port1 = p1.port(channel)

    def bad_handler(delivery):
        # Echo straight from the polling thread — the paper's forbidden
        # move ("a polling thread must not proceed to any send").
        message = port1.begin_packing(0)
        message.pack(b"echo", 4, SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()

    PollingThread(p1.runtime, port1.poll_source(), bad_handler)

    def sender():
        message = p0.port(channel).begin_packing(1)
        message.pack(b"ping", 4, SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()

    p0.runtime.spawn(sender, name="sender")
    with pytest.raises(CheckViolation) as excinfo:
        session.run()
    violation = excinfo.value
    assert violation.invariant == "polling-send"
    assert violation.rank == 1
    assert "main:1->0" in violation.connection


# ---------------------------------------------------------------------------
# plant: acting on a message before paying for it (owed CPU time)
# ---------------------------------------------------------------------------

def test_post_between_open_delivery_and_end_unpacking_is_flagged():
    """open_delivery and unpack only *accrue* their cost; the thread pays
    in end_unpacking.  A handler that tells another thread about the
    message in between tells it a receive's worth of time too early."""
    engine = Engine(config=EngineConfig(checker=True, checker_raise=False))
    session = MadeleineSession(engine=engine)
    session.add_fabric("sisci")
    p0 = session.add_process(networks=("sisci",))
    p1 = session.add_process(networks=("sisci",))
    channel = session.new_channel("main", "sisci")
    port1 = p1.port(channel)
    seen = Mailbox(name="seen")

    def leaky_handler(delivery):
        incoming = port1.open_delivery(delivery)
        data = incoming.unpack(4, SEND_CHEAPER, RECEIVE_CHEAPER)
        seen.post(data)
        yield from incoming.end_unpacking()

    PollingThread(p1.runtime, port1.poll_source(), leaky_handler)

    def sender():
        message = p0.port(channel).begin_packing(1)
        message.pack(b"ping", 4, SEND_CHEAPER, RECEIVE_CHEAPER)
        yield from message.end_packing()

    p0.runtime.spawn(sender, name="sender")
    session.run()
    (violation,) = engine.checker.violations  # this invariant, no other
    assert violation.invariant == "owed-time-leak"
    assert violation.rank == 1
    params = port1.params
    owed = params.poll_cost + params.recv_overhead
    assert violation.time == engine.now - owed  # flagged at the post
    assert "Mailbox.post" in violation.details
    assert f"owes {owed} ns" in violation.details
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# plant: an artificial receive cycle, diagnosed rank by rank
# ---------------------------------------------------------------------------

def test_recv_cycle_is_diagnosed_rank_by_rank():
    world = MPIWorld(linear_cluster(2, networks=("sisci",)))

    def program(mpi):
        comm = mpi.comm_world
        yield from comm.recv(source=1 - comm.rank, tag=0)

    with pytest.raises(DeadlockError) as excinfo:
        world.run(program)
    error = excinfo.value
    assert error.cycle == [0, 1]
    text = str(error)
    assert "wait-for cycle: rank 0 -> rank 1 -> rank 0" in text
    assert "rank 0 waits on rank 1: recv source=1" in text
    assert "rank 1 waits on rank 0: recv source=0" in text


def test_three_rank_relay_cycle_is_found():
    world = MPIWorld(linear_cluster(3, networks=("sisci",)))

    def program(mpi):
        comm = mpi.comm_world
        yield from comm.recv(source=(comm.rank + 1) % 3, tag=0)

    with pytest.raises(DeadlockError) as excinfo:
        world.run(program)
    assert excinfo.value.cycle == [0, 1, 2]


# ---------------------------------------------------------------------------
# plant: leaked requests at MPI_Finalize
# ---------------------------------------------------------------------------

def test_leaked_irecv_reported_at_finalize():
    world = MPIWorld(linear_cluster(2, networks=("sisci",)))
    install_checker(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        yield from comm.barrier()
        if comm.rank == 0:
            comm.irecv(source=1, tag=3)  # never matched, never waited

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "finalize-leak"
    assert violation.rank == 0
    assert "still posted" in violation.details


def test_unreceived_message_reported_at_finalize():
    world = MPIWorld(linear_cluster(2, networks=("sisci",)))
    install_checker(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(b"orphan", dest=1, tag=3, size=32)
        yield from comm.barrier()

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "finalize-leak"
    assert violation.rank == 1
    assert "unexpected" in violation.details


def test_unacknowledged_node_mate_issend_reported_at_finalize():
    """The sender's side of a rendezvous nobody received, through
    smp_plug: the pending-send table is the ADI's, not ch_mad's."""
    world = MPIWorld(ClusterConfig(nodes=[NodeSpec("smp", processes=2)]),
                     engine_config=EngineConfig(checker=True,
                                                checker_raise=False))
    send_ids = []

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            comm.issend(b"orphan", dest=1, tag=3, size=32)
        yield from comm.barrier()
        send_ids.extend(mpi.progress.pending_sends)

    world.run(program)
    (send_id,) = send_ids
    mine = [v for v in world.engine.checker.violations if v.rank == 0
            and "never acknowledged" in v.details]
    assert [v.invariant for v in mine] == ["finalize-leak"]
    assert f"send_ids [{send_id}]" in mine[0].details


# ---------------------------------------------------------------------------
# plant: forged transport acknowledgement
# ---------------------------------------------------------------------------

def test_forged_ack_outside_send_window():
    config = ClusterConfig(
        nodes=[NodeSpec(f"n{i}", networks=("sisci",)) for i in range(2)],
        reliable=True)
    world = MPIWorld(config)
    install_checker(world.engine)

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(b"x", dest=1, tag=0, size=64)
            device = mpi.inter_device
            port = next(iter(device.ports.values()))
            mpi.process.transport.handle_ack(
                port, MadAck(channel_id=port.channel.id, source_rank=1,
                             dest_rank=0, ack_seq=40))
        else:
            yield from comm.recv(source=0, tag=0)

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "reliable-window"
    assert violation.rank == 0
    assert "40" in violation.details


# ---------------------------------------------------------------------------
# unit plants against the checker's own state machines
# ---------------------------------------------------------------------------

def test_overtaking_match_is_flagged():
    checker = fresh_checker()
    first = Envelope(context_id=0, source=0, tag=5, size=8)
    second = Envelope(context_id=0, source=0, tag=5, size=8)
    checker.on_send(first, dest_world=1)
    checker.on_send(second, dest_world=1)
    checker.on_match(second, rank=1)  # message #1 overtook message #0
    assert [v.invariant for v in checker.violations] == ["non-overtaking"]
    violation = checker.violations[0]
    assert violation.rank == 1
    assert violation.connection == "0->1/tag5"
    assert "message #1" in violation.details


def test_in_order_matches_are_clean():
    checker = fresh_checker()
    envelopes = [Envelope(context_id=0, source=0, tag=5, size=8)
                 for _ in range(3)]
    for envelope in envelopes:
        checker.on_send(envelope, dest_world=1)
    for envelope in envelopes:
        checker.on_match(envelope, rank=1)
    assert checker.violations == []


def test_duplicate_wire_delivery_is_flagged():
    checker = fresh_checker()
    port = SimpleNamespace(channel=SimpleNamespace(id=1, name="main"),
                           rank=0)
    checker.on_wire_deliver(port, src=1, seq=0)
    checker.on_wire_deliver(port, src=1, seq=1)
    checker.on_wire_deliver(port, src=1, seq=1)  # past the dedup: a bug
    assert [v.invariant for v in checker.violations] == ["reliable-window"]
    assert "duplicate delivery" in checker.violations[0].details


def test_sequence_gap_is_flagged():
    checker = fresh_checker()
    port = SimpleNamespace(channel=SimpleNamespace(id=1, name="main"),
                           rank=2)
    checker.on_wire_deliver(port, src=0, seq=0)
    checker.on_wire_deliver(port, src=0, seq=3)
    assert "skipped 2" in checker.violations[0].details


def test_cheaper_header_block_is_flagged():
    checker = fresh_checker()
    wire = MadWireMessage(
        channel_id=1, source_rank=0, dest_rank=1, sequence=0,
        blocks=(PackedBlock(b"hdr", 8, SEND_CHEAPER, RECEIVE_CHEAPER),))
    checker.on_chmad_wire(1, "sisci", wire)
    assert [v.invariant for v in checker.violations] == ["express-ordering"]
    assert "receive_EXPRESS" in checker.violations[0].details


def test_express_body_block_is_flagged():
    checker = fresh_checker()
    wire = MadWireMessage(
        channel_id=1, source_rank=0, dest_rank=1, sequence=0,
        blocks=(PackedBlock(b"hdr", 8, SEND_CHEAPER, RECEIVE_EXPRESS),
                PackedBlock(b"body", 64, SEND_CHEAPER, RECEIVE_EXPRESS)))
    checker.on_chmad_wire(1, "sisci", wire)
    assert [v.invariant for v in checker.violations] == ["express-ordering"]
    assert "body block #1" in checker.violations[0].details


def test_violations_accumulate_when_not_raising():
    checker = fresh_checker(raise_on_violation=False)
    port = SimpleNamespace(channel=SimpleNamespace(id=1, name="main"),
                           rank=0)
    checker.on_wire_deliver(port, src=1, seq=0)
    checker.on_wire_deliver(port, src=1, seq=0)
    checker.on_wire_deliver(port, src=1, seq=0)
    assert len(checker.violations) == 2


def test_violation_message_is_actionable():
    checker = fresh_checker()
    port = SimpleNamespace(channel=SimpleNamespace(id=7, name="sci-chan"),
                           rank=3)
    checker.on_wire_deliver(port, src=1, seq=0)
    checker.on_wire_deliver(port, src=1, seq=0)
    text = str(checker.violations[0])
    assert "[reliable-window]" in text
    assert "rank 3" in text
    assert "sci-chan:1->3" in text


# ---------------------------------------------------------------------------
# plants: one-sided (RMA) epoch discipline and registration audit
# ---------------------------------------------------------------------------

def _ib_pair():
    return ClusterConfig(nodes=[NodeSpec("n0", networks=("ib",)),
                                NodeSpec("n1", networks=("ib",))])


def test_rma_access_outside_epoch_is_flagged():
    """A put before the first fence is access outside any exposure epoch."""
    world = MPIWorld(_ib_pair())
    install_checker(world.engine, raise_on_violation=True)

    def program(mpi):
        comm = mpi.comm_world
        win = yield from comm.win_create(64)
        if comm.rank == 0:
            # No fence has opened an epoch yet.
            yield from win.put(1, 0, b"too-early")
        yield from win.fence()
        yield from win.fence()
        yield from win.free()

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "rma-epoch"
    assert violation.rank == 0
    assert violation.connection == "0->1"
    assert "outside any fence epoch" in violation.details


def test_rma_unfenced_completion_is_flagged():
    """Unit plant: a fence that completes with an epoch op unapplied."""
    checker = fresh_checker()
    checker.on_win_create(0, 77)
    checker.on_win_create(1, 77)
    checker.on_win_fence(0, 77)
    checker.on_win_fence(1, 77)
    checker.on_rma_op(0, 77, "put", 1, "77.0.1")
    # Rank 1's fence returns without the put ever being applied — the
    # fence-ordered-completion contract is broken.
    checker.on_win_fence_complete(1, 77)
    assert [v.invariant for v in checker.violations] == [
        "rma-unfenced-completion"]
    violation = checker.violations[0]
    assert violation.rank == 1
    assert violation.connection == "0->1"
    assert "77.0.1" in violation.details


def test_rma_applied_ops_complete_fence_cleanly():
    """The positive twin: applied ops make the same fence violation-free."""
    checker = fresh_checker()
    checker.on_win_create(0, 77)
    checker.on_win_create(1, 77)
    checker.on_win_fence(0, 77)
    checker.on_win_fence(1, 77)
    checker.on_rma_op(0, 77, "put", 1, "77.0.1")
    checker.on_rma_apply(1, 77, "77.0.1")
    checker.on_win_fence_complete(1, 77)
    assert checker.violations == []


def test_registration_leak_reported_at_finalize():
    """Explicitly pinned memory never released fails the finalize audit."""
    world = MPIWorld(_ib_pair())
    install_checker(world.engine, raise_on_violation=True)

    def program(mpi):
        yield from mpi.comm_world.barrier()
        if mpi.rank == 1:
            yield from mpi.process.endpoint("ib").register_explicit(
                ("leak", mpi.rank), 4096)

    with pytest.raises(CheckViolation) as excinfo:
        world.run(program)
    violation = excinfo.value
    assert violation.invariant == "registration-leak"
    assert violation.rank == 1
    assert "4096" in violation.details
    assert "still pinned" in violation.details


def test_deregister_of_unregistered_memory_is_flagged():
    checker = fresh_checker()
    checker.on_mem_deregister(2, ("win", 9))
    assert [v.invariant for v in checker.violations] == ["registration-leak"]
    assert checker.violations[0].rank == 2
    assert "never registered" in checker.violations[0].details
