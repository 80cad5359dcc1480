"""Tests for the metrics/instrumentation subsystem (repro.sim.metrics)."""

import json

import pytest

from repro.cluster import ClusterConfig, MPIWorld, NodeSpec, two_node_cluster
from repro.sim import Engine
from repro.sim.engine import install_instrumentation
from repro.sim.trace import NullTracer
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTS,
    format_labels,
)


class TestRegistry:
    def test_counter_create_and_inc(self):
        registry = MetricsRegistry()
        registry.counter("msgs", chan="tcp").inc()
        registry.counter("msgs", chan="tcp").inc(4)
        registry.counter("msgs", chan="sci").inc()
        assert registry.value("msgs", chan="tcp") == 5
        assert registry.value("msgs", chan="sci") == 1
        assert registry.total("msgs") == 6

    def test_untouched_metric_reads_zero(self):
        registry = MetricsRegistry()
        assert registry.value("nothing") == 0
        assert registry.total("nothing") == 0

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_gauge_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.high_water == 3

    def test_histogram_stats(self):
        h = MetricsRegistry().histogram("sizes")
        for v in (1, 2, 3, 4, 100):
            h.observe(v)
        assert h.count == 5
        assert h.total == 110
        assert h.min == 1 and h.max == 100
        assert h.percentile(50) == 3
        assert h.percentile(100) == 100
        empty = Histogram("empty")
        assert empty.mean == 0.0 and empty.percentile(99) == 0

    def test_collect_sorted_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        registry.gauge("g")
        assert [m.name for m in registry.collect(Counter)] == ["a", "b"]
        assert [m.name for m in registry.collect(Gauge)] == ["g"]
        assert len(registry.collect()) == 3

    def test_format_labels(self):
        assert format_labels(()) == ""
        assert format_labels((("a", 1), ("b", "x"))) == "{a=1,b=x}"


class TestInstrumentationFacade:
    def test_engine_disabled_by_default(self):
        engine = Engine()
        assert engine.instruments is NULL_INSTRUMENTS
        assert not engine.instruments.enabled

    def test_null_instruments_record_nothing(self):
        NULL_INSTRUMENTS.count("x", 5)
        NULL_INSTRUMENTS.set_gauge("g", 1)
        NULL_INSTRUMENTS.observe("h", 2)
        NULL_INSTRUMENTS.emit("cat", a=1)
        assert len(NULL_INSTRUMENTS.metrics) == 0
        assert NULL_INSTRUMENTS.metrics.value("x") == 0
        assert NULL_INSTRUMENTS.chrome_trace()["traceEvents"] == []
        assert "disabled" in NULL_INSTRUMENTS.report()

    def test_enable_instrumentation_installs_tracer_too(self):
        engine = Engine()
        ins = install_instrumentation(engine)
        assert engine.instruments is ins
        assert engine.tracer is ins.tracer
        assert ins.enabled and ins.tracer.enabled

    def test_enable_tracing_still_returns_live_tracer(self):
        engine = Engine()
        tracer = install_instrumentation(engine).tracer
        tracer.emit("x", k=1)
        assert len(tracer.records) == 1
        # ... and the full facade came along for the ride.
        assert engine.instruments.enabled

    def test_gauge_samples_are_traced(self):
        engine = Engine()
        ins = install_instrumentation(engine)
        ins.set_gauge("depth", 2, rank=0)
        (record,) = ins.tracer.select("gauge")
        assert record["name"] == "depth" and record["value"] == 2

    def test_report_contains_all_kinds(self):
        ins = Instrumentation(Engine())
        ins.count("c", 3, net="tcp")
        ins.set_gauge("g", 7)
        ins.observe("h", 1.5)
        text = ins.report()
        assert "c" in text and "{net=tcp}" in text and "3" in text
        assert "high-water" in text and "p99" in text


def _node_mates():
    return ClusterConfig(nodes=[NodeSpec("n", processes=2)])


def _two_nodes(network):
    def make():
        config = two_node_cluster(networks=(network,))
        config.rdma = True  # ib: the rendezvous data phase is one write
        return config
    return make


@pytest.mark.parametrize("make_config", [
    _two_nodes("sisci"), _two_nodes("bip"), _two_nodes("tcp"),
    _two_nodes("ib"), _node_mates,
], ids=["sisci", "bip", "tcp", "ib-rdma", "smp_plug"])
def test_switched_off_tracer_is_never_called(monkeypatch, make_config):
    """Zero cost when off: with tracing off no hot-path site reaches the
    null tracer, not even to build its keyword dict."""
    def called(*_args, **_fields):
        raise AssertionError("NullTracer.emit reached with tracing off")

    monkeypatch.setattr(NullTracer, "emit", called)

    def program(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(b"eager", dest=1, tag=1, size=64)
            yield from comm.send(b"rndv", dest=1, tag=2, size=200_000)
            return None
        small, _ = yield from comm.recv(source=0, tag=1)
        large, _ = yield from comm.recv(source=0, tag=2)
        return small, large

    assert MPIWorld(make_config()).run(program)[1] == (b"eager", b"rndv")


class TestStackCounters:
    def _pingpong_world(self, enable=True, size=512, rounds=3):
        world = MPIWorld(two_node_cluster(networks=("sisci",)))
        instruments = (install_instrumentation(world.engine) if enable
                       else world.engine.instruments)

        def program(mpi):
            comm = mpi.comm_world
            for _ in range(rounds):
                if comm.rank == 0:
                    yield from comm.send(b"", dest=1, tag=1, size=size)
                    yield from comm.recv(source=1, tag=2)
                else:
                    yield from comm.recv(source=0, tag=1)
                    yield from comm.send(b"", dest=0, tag=2, size=size)

        world.run(program)
        return world, instruments

    def test_counters_zero_when_disabled(self):
        world, instruments = self._pingpong_world(enable=False)
        assert instruments is NULL_INSTRUMENTS
        assert len(instruments.metrics) == 0
        assert instruments.metrics.total("mad.messages") == 0
        assert world.engine.events_executed > 0  # the run itself happened

    def test_per_channel_bytes_match_tracer(self):
        world, ins = self._pingpong_world()
        traced = sum(r["nbytes"] for r in
                     ins.tracer.select("net.deliver", fabric="sisci"))
        assert traced > 0
        assert ins.metrics.total("mad.bytes") == traced
        assert ins.metrics.total("mad.messages") == len(
            ins.tracer.select("net.deliver", fabric="sisci"))

    def test_packet_type_counts(self):
        _, ins = self._pingpong_world(rounds=2)
        m = ins.metrics
        for rank, sent in ((0, 2), (1, 2)):
            assert m.value("chmad.packets", pkt="MAD_SHORT_PKT",
                           protocol="sisci", rank=rank, dir="send") == sent
            assert m.value("chmad.packets", pkt="MAD_SHORT_PKT",
                           protocol="sisci", rank=rank, dir="recv") == sent
        assert m.total("adi.mode") == 4  # every send decided a mode

    def test_rendezvous_mode_counted(self):
        _, ins = self._pingpong_world(size=100_000, rounds=1)
        assert ins.metrics.value("adi.mode", mode="rendezvous",
                                 device="ch_mad", rank=0) == 1
        for pkt in ("MAD_REQUEST_PKT", "MAD_SENDOK_PKT", "MAD_RNDV_PKT"):
            assert ins.metrics.total("chmad.packets") >= 1, pkt

    def test_express_vs_cheaper_blocks(self):
        _, ins = self._pingpong_world(rounds=2)
        m = ins.metrics
        # Every ch_mad packet has an EXPRESS header; eager bodies ride
        # CHEAPER (the §4.2.2 split).
        express = sum(c.value for c in m.collect(Counter)
                      if c.name == "mad.blocks"
                      and dict(c.labels)["mode"] == "EXPRESS")
        cheaper = sum(c.value for c in m.collect(Counter)
                      if c.name == "mad.blocks"
                      and dict(c.labels)["mode"] == "CHEAPER")
        assert express == 4  # one header per eager packet
        assert cheaper == 4  # one body per non-empty eager packet

    def test_polling_and_sendgate_instruments(self):
        _, ins = self._pingpong_world()
        assert ins.metrics.total("poll.wakeups") > 0
        gauges = [g for g in ins.metrics.collect(Gauge)
                  if g.name == "sendgate.depth"]
        assert gauges and all(g.high_water >= 1 for g in gauges)

    def test_tcp_poller_idle_time_counted(self):
        world = MPIWorld(two_node_cluster(networks=("sisci", "tcp")))
        ins = install_instrumentation(world.engine)

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(b"", dest=1, tag=1, size=64)
            else:
                yield from comm.recv(source=0, tag=1)

        world.run(program)
        # The TCP pollers carried nothing but still burned select() time.
        assert ins.metrics.value("poll.idle_ns", source="tcp@0") > 0
        assert ins.metrics.value("poll.wakeups", source="tcp@0",
                                 mode="periodic") > 0


class TestChromeTraceExport:
    def test_round_trips_with_valid_fields(self, tmp_path):
        world, ins = TestStackCounters()._pingpong_world(size=100_000,
                                                         rounds=1)
        path = ins.export_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as fh:
            data = json.loads(fh.read())
        events = data["traceEvents"]
        assert len(events) == len(ins.tracer.records)
        for event in events:
            assert event["ph"] in {"i", "X", "C"}
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["pid"], int)

    def test_event_shapes(self):
        engine = Engine()
        ins = install_instrumentation(engine)
        ins.emit("chmad.send", src=1, pkt="MAD_SHORT_PKT", protocol="tcp")
        ins.emit("net.deliver", fabric="sisci", src=0, dst=1, nbytes=64,
                 latency=2500)
        ins.set_gauge("sendgate.depth", 3, rank=0)
        instant, span, counter = ins.chrome_trace()["traceEvents"]
        assert instant["ph"] == "i" and instant["name"] == "MAD_SHORT_PKT"
        assert instant["tid"] == "tcp" and instant["pid"] == 1
        assert span["ph"] == "X" and span["dur"] == 2.5
        assert counter["ph"] == "C"
        assert counter["args"] == {"sendgate.depth": 3}
