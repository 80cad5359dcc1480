"""Unit tests for the Madeleine II library."""

import pytest

from repro.errors import ChannelError, ConfigurationError, PackingError
from repro.madeleine import (
    MadeleineSession,
    RECEIVE_CHEAPER,
    RECEIVE_EXPRESS,
    SEND_CHEAPER,
    SEND_LATER,
    SEND_SAFER,
    mad_begin_packing,
    mad_begin_unpacking,
    mad_end_packing,
    mad_end_unpacking,
    mad_pack,
    mad_unpack,
)
from repro.units import us


def make_session(networks=("sisci",), nprocs=2):
    session = MadeleineSession()
    for protocol in networks:
        session.add_fabric(protocol)
    for _ in range(nprocs):
        session.add_process(networks=networks)
    return session


class TestSessionConstruction:
    def test_processes_get_ranks_in_order(self):
        session = make_session(nprocs=3)
        assert [p.rank for p in session.processes] == [0, 1, 2]

    def test_duplicate_fabric_rejected(self):
        session = MadeleineSession()
        session.add_fabric("tcp")
        with pytest.raises(ConfigurationError):
            session.add_fabric("tcp")

    def test_unknown_protocol_needs_explicit_params(self):
        session = MadeleineSession()
        with pytest.raises(ConfigurationError, match="canned"):
            session.add_fabric("quadrics")

    def test_process_without_board_cannot_join_channel(self):
        session = MadeleineSession()
        session.add_fabric("sisci")
        session.add_fabric("tcp")
        session.add_process(networks=("sisci", "tcp"))
        session.add_process(networks=("tcp",))
        # Only one process has an SCI board, so the default-membership
        # channel (filtered by protocol) cannot be formed.
        with pytest.raises(ConfigurationError, match="two member"):
            session.new_channel("sci-chan", "sisci")
        # A TCP channel over the same processes works.
        assert session.new_channel("tcp-chan", "tcp") is not None

    def test_channel_needs_two_members(self):
        session = MadeleineSession()
        session.add_fabric("sisci")
        session.add_process(networks=("sisci",))
        session.add_process(networks=())
        with pytest.raises(ConfigurationError, match="two member"):
            session.new_channel("c", "sisci")

    def test_duplicate_channel_name_rejected(self):
        session = make_session()
        session.new_channel("c", "sisci")
        with pytest.raises(ConfigurationError):
            session.new_channel("c", "sisci")

    def test_endpoint_lookup_error_lists_attached(self):
        session = make_session(networks=("sisci",))
        with pytest.raises(ConfigurationError, match="no tcp board"):
            session.processes[0].endpoint("tcp")


class TestBasicTransfer:
    def test_single_block_roundtrip(self):
        session = make_session()
        channel = session.new_channel("main", "sisci")
        p0, p1 = session.processes
        received = []

        def sender():
            msg = p0.port(channel).begin_packing(1)
            msg.pack(b"payload", 7, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()

        def receiver():
            msg = yield from p1.port(channel).begin_unpacking()
            data = msg.unpack(7, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_unpacking()
            received.append((data, msg.source_rank))

        p0.runtime.spawn(sender, name="sender")
        p1.runtime.spawn(receiver, name="receiver")
        session.run()
        assert received == [(b"payload", 0)]

    def test_paper_figure2_example(self):
        """The size-then-array example from the paper's Figure 2."""
        session = make_session()
        channel = session.new_channel("main", "sisci")
        p0, p1 = session.processes
        array = bytes(range(256)) * 4
        out = []

        def sender():
            connection = mad_begin_packing(p0.port(channel), 1)
            mad_pack(connection, len(array), 4,
                                SEND_CHEAPER, RECEIVE_EXPRESS)
            mad_pack(connection, array, len(array),
                                SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from mad_end_packing(connection)

        def receiver():
            connection = yield from mad_begin_unpacking(p1.port(channel))
            size = mad_unpack(connection, 4,
                                         SEND_CHEAPER, RECEIVE_EXPRESS)
            data = mad_unpack(connection, size,
                                         SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from mad_end_unpacking(connection)
            out.append((size, data))

        p0.runtime.spawn(sender)
        p1.runtime.spawn(receiver)
        session.run()
        assert out == [(1024, array)]

    def test_in_order_delivery_per_connection(self):
        session = make_session()
        channel = session.new_channel("main", "sisci")
        p0, p1 = session.processes
        got = []

        def sender():
            for i in range(5):
                msg = p0.port(channel).begin_packing(1)
                msg.pack(i, 4, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from msg.end_packing()

        def receiver():
            for _ in range(5):
                msg = yield from p1.port(channel).begin_unpacking()
                value = msg.unpack(4, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from msg.end_unpacking()
                got.append(value)

        p0.runtime.spawn(sender)
        p1.runtime.spawn(receiver)
        session.run()
        assert got == [0, 1, 2, 3, 4]

    def test_channels_do_not_interfere(self):
        session = make_session(networks=("sisci", "tcp"))
        sci = session.new_channel("sci", "sisci")
        tcp = session.new_channel("tcp", "tcp")
        p0, p1 = session.processes
        got = {}

        def sender():
            # TCP message first, SCI second; SCI overtakes on the wire.
            m1 = p0.port(tcp).begin_packing(1)
            m1.pack("slow", 64, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from m1.end_packing()
            m2 = p0.port(sci).begin_packing(1)
            m2.pack("fast", 64, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from m2.end_packing()

        def receiver():
            msg = yield from p1.port(sci).begin_unpacking()
            got["sci"] = msg.unpack(64, SEND_CHEAPER, RECEIVE_CHEAPER), session.engine.now
            yield from msg.end_unpacking()
            msg = yield from p1.port(tcp).begin_unpacking()
            got["tcp"] = msg.unpack(64, SEND_CHEAPER, RECEIVE_CHEAPER), session.engine.now
            yield from msg.end_unpacking()

        p0.runtime.spawn(sender)
        p1.runtime.spawn(receiver)
        session.run()
        assert got["sci"][0] == "fast"
        assert got["tcp"][0] == "slow"
        assert got["sci"][1] < got["tcp"][1]

    def test_bidirectional_traffic(self):
        session = make_session()
        channel = session.new_channel("main", "sisci")
        p0, p1 = session.processes
        results = {}

        def peer(process, me, other):
            def body():
                msg = process.port(channel).begin_packing(other)
                msg.pack(f"from-{me}", 16, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from msg.end_packing()
                incoming = yield from process.port(channel).begin_unpacking()
                data = incoming.unpack(16, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from incoming.end_unpacking()
                results[me] = data
            return body

        p0.runtime.spawn(peer(p0, 0, 1))
        p1.runtime.spawn(peer(p1, 1, 0))
        session.run()
        assert results == {0: "from-1", 1: "from-0"}


class TestPackingRules:
    def _ports(self, session=None):
        session = session or make_session()
        channel = session.new_channel("main", "sisci")
        p0, p1 = session.processes
        return session, p0.port(channel), p1.port(channel)

    def _run_gen(self, session, gen_fn, rank=0):
        session.processes[rank].runtime.spawn(gen_fn)
        session.run()

    def test_unpack_size_mismatch_raises(self):
        session, sport, rport = self._ports()

        def sender():
            msg = sport.begin_packing(1)
            msg.pack(b"xxxx", 4, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()

        failures = []

        def receiver():
            msg = yield from rport.begin_unpacking()
            try:
                msg.unpack(8, SEND_CHEAPER, RECEIVE_CHEAPER)
            except PackingError as exc:
                failures.append(exc)

        session.processes[0].runtime.spawn(sender)
        session.processes[1].runtime.spawn(receiver)
        session.run()
        assert len(failures) == 1

    def test_unpack_mode_mismatch_raises(self):
        session, sport, rport = self._ports()

        def sender():
            msg = sport.begin_packing(1)
            msg.pack(b"x", 1, SEND_CHEAPER, RECEIVE_EXPRESS)
            yield from msg.end_packing()

        failures = []

        def receiver():
            msg = yield from rport.begin_unpacking()
            try:
                msg.unpack(1, SEND_CHEAPER, RECEIVE_CHEAPER)
            except PackingError as exc:
                failures.append(exc)

        session.processes[0].runtime.spawn(sender)
        session.processes[1].runtime.spawn(receiver)
        session.run()
        assert len(failures) == 1

    def test_end_unpacking_with_remaining_blocks_raises(self):
        session, sport, rport = self._ports()

        def sender():
            msg = sport.begin_packing(1)
            msg.pack(b"a", 1, SEND_CHEAPER, RECEIVE_CHEAPER)
            msg.pack(b"b", 1, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()

        failures = []

        def receiver():
            msg = yield from rport.begin_unpacking()
            msg.unpack(1, SEND_CHEAPER, RECEIVE_CHEAPER)
            try:
                yield from msg.end_unpacking()
            except PackingError as exc:
                failures.append(exc)

        session.processes[0].runtime.spawn(sender)
        session.processes[1].runtime.spawn(receiver)
        session.run()
        assert len(failures) == 1

    def test_empty_message_rejected(self):
        session, sport, _ = self._ports()
        failures = []

        def sender():
            msg = sport.begin_packing(1)
            try:
                yield from msg.end_packing()
            except PackingError as exc:
                failures.append(exc)

        self._run_gen(session, sender)
        assert len(failures) == 1

    def test_pack_after_end_rejected(self):
        session, sport, rport = self._ports()
        failures = []

        def sender():
            msg = sport.begin_packing(1)
            msg.pack(b"a", 1, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_packing()
            try:
                msg.pack(b"b", 1, SEND_CHEAPER, RECEIVE_CHEAPER)
            except PackingError as exc:
                failures.append(exc)

        def receiver():
            msg = yield from rport.begin_unpacking()
            msg.unpack(1, SEND_CHEAPER, RECEIVE_CHEAPER)
            yield from msg.end_unpacking()

        session.processes[0].runtime.spawn(sender)
        session.processes[1].runtime.spawn(receiver)
        session.run()
        assert len(failures) == 1

    def test_pack_requires_mode_flags(self):
        _, sport, _ = self._ports()
        with pytest.raises(PackingError):
            sport.begin_packing(1).pack(b"a", 1, "cheap", RECEIVE_CHEAPER)

    def test_self_connection_rejected(self):
        _, sport, _ = self._ports()
        with pytest.raises(ChannelError, match="ch_self"):
            sport.begin_packing(0)

    def test_unknown_remote_rejected(self):
        _, sport, _ = self._ports()
        with pytest.raises(ChannelError, match="not a member"):
            sport.begin_packing(7)


class TestCosts:
    def test_express_charges_copies_both_sides(self):
        """An EXPRESS block must cost more than a CHEAPER one (copies)."""
        times = {}
        for mode in (RECEIVE_EXPRESS, RECEIVE_CHEAPER):
            session = make_session()
            channel = session.new_channel("main", "sisci")
            p0, p1 = session.processes
            n = 64 * 1024

            def sender():
                msg = p0.port(channel).begin_packing(1)
                msg.pack(b"", n, SEND_CHEAPER, mode)
                yield from msg.end_packing()

            def receiver():
                msg = yield from p1.port(channel).begin_unpacking()
                msg.unpack(n, SEND_CHEAPER, mode)
                yield from msg.end_unpacking()

            p0.runtime.spawn(sender)
            p1.runtime.spawn(receiver)
            times[mode] = session.run()
        assert times[RECEIVE_EXPRESS] > times[RECEIVE_CHEAPER]

    def test_send_safer_charges_sender_copy(self):
        costs = {}
        for mode in (SEND_SAFER, SEND_LATER):
            session = make_session()
            channel = session.new_channel("main", "sisci")
            p0, p1 = session.processes
            n = 32 * 1024

            def sender():
                msg = p0.port(channel).begin_packing(1)
                msg.pack(b"", n, mode, RECEIVE_CHEAPER)
                yield from msg.end_packing()

            def receiver():
                msg = yield from p1.port(channel).begin_unpacking()
                msg.unpack(n, mode, RECEIVE_CHEAPER)
                yield from msg.end_unpacking()

            p0.runtime.spawn(sender)
            p1.runtime.spawn(receiver)
            session.run()
            costs[mode] = p0.runtime.cpu.busy_time
        assert costs[SEND_SAFER] > costs[SEND_LATER]

    def test_second_block_charges_pack_op_cost(self):
        busy = {}
        for nblocks in (1, 2):
            session = make_session()
            channel = session.new_channel("main", "sisci")
            p0, p1 = session.processes

            def sender():
                msg = p0.port(channel).begin_packing(1)
                for _ in range(nblocks):
                    msg.pack(b"x", 1, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from msg.end_packing()

            def receiver():
                msg = yield from p1.port(channel).begin_unpacking()
                for _ in range(nblocks):
                    msg.unpack(1, SEND_CHEAPER, RECEIVE_CHEAPER)
                yield from msg.end_unpacking()

            p0.runtime.spawn(sender)
            p1.runtime.spawn(receiver)
            session.run()
            busy[nblocks] = p0.runtime.cpu.busy_time
        pack_cost = session.fabrics["sisci"].params.pack_op_cost
        assert busy[2] - busy[1] >= pack_cost
