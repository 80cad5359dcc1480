"""Tests for the analytic baselines and the benchmark harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ALL_BASELINES, MPICH_PM, MPI_GM, SCAMPI, SCI_MPICH
from repro.baselines.model import AnalyticMPIModel, Segment
from repro.bench.pingpong import PingPongResult, summarize_roundtrips
from repro.bench.report import (
    FigureData,
    PaperCheck,
    format_paper_checks,
    format_table,
)
from repro.bench.sweeps import (
    BANDWIDTH_SWEEP_SIZES,
    LATENCY_SWEEP_SIZES,
    sweep,
)


class TestAnalyticModel:
    def test_segment_selection(self):
        model = AnalyticMPIModel("m", "sisci", [
            Segment(100, 10.0, 1.0),
            Segment(2**62, 20.0, 0.5),
        ], source="test")
        assert model.one_way_ns(50) == 10_000 + 50
        assert model.one_way_ns(100) == 10_000 + 100
        assert model.one_way_ns(101) == 20_000 + round(101 * 0.5)

    def test_bandwidth(self):
        model = AnalyticMPIModel("m", "bip", [Segment(2**62, 0.0, 10.0)],
                                 source="test")
        # 10 ns/B = 100 MB/s.
        assert model.bandwidth_mb_s(1_000_000) == pytest.approx(100.0)
        assert model.bandwidth_mb_s(0) == 0.0

    def test_unsorted_segments_rejected(self):
        with pytest.raises(ValueError):
            AnalyticMPIModel("m", "x", [Segment(100, 1, 1), Segment(50, 1, 1)],
                             source="t")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SCAMPI.one_way_ns(-1)

    @given(st.sampled_from(list(ALL_BASELINES.values())),
           st.integers(0, 2**20))
    @settings(max_examples=80, deadline=None)
    def test_latency_monotone_in_size_within_segment(self, model, size):
        seg = model.segment_for(size)
        if size + 1 <= seg.upto:
            assert model.one_way_ns(size + 1) >= model.one_way_ns(size)


class TestBaselineCalibration:
    """The paper's comparative statements that the models must encode."""

    def test_sci_natives_beat_ch_mad_latency_target(self):
        # ch_mad SCI small-message latency is ~20 us; natives are below.
        assert SCAMPI.latency_us(4) < 20
        assert SCI_MPICH.latency_us(4) < 20
        assert SCAMPI.latency_us(4) < SCI_MPICH.latency_us(4)

    def test_sci_natives_cap_below_80(self):
        for size in (262144, 1048576, 8_000_000):
            assert SCAMPI.bandwidth_mb_s(size) < 80
            assert SCI_MPICH.bandwidth_mb_s(size) < 80

    def test_gm_weak_large_messages(self):
        assert MPI_GM.bandwidth_mb_s(1048576) < 55
        assert MPICH_PM.bandwidth_mb_s(1048576) > 100

    def test_pm_close_to_raw_madeleine_small(self):
        # ~5 us below ch_mad's ~20 us.
        assert 12 < MPICH_PM.latency_us(4) < 18

    def test_networks_declared(self):
        assert SCAMPI.network == "sisci"
        assert MPI_GM.network == "bip"


class TestPingPongResult:
    def test_summarize_min_of_roundtrips(self):
        result = summarize_roundtrips("x", 100, [2000, 1500, 1800])
        assert result.one_way_ns == 750
        assert result.reps == 3
        assert result.mean_one_way_ns == pytest.approx((2000 + 1500 + 1800) / 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_roundtrips("x", 0, [])

    def test_derived_metrics(self):
        result = PingPongResult("x", 1_000_000, 3, 100_000_000, 1.1e8)
        assert result.latency_us == pytest.approx(100_000)
        assert result.bandwidth_mb_s == pytest.approx(10.0)
        assert "MB/s" in str(result)

    @given(st.lists(st.integers(2, 10**9), min_size=1, max_size=20),
           st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_min_never_exceeds_mean(self, roundtrips, size):
        result = summarize_roundtrips("x", size, roundtrips)
        assert result.one_way_ns <= result.mean_one_way_ns + 0.5


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.50" in text

    def test_paper_check_verdicts(self):
        ok = PaperCheck("q", paper=100.0, measured=105.0)
        bad = PaperCheck("q", paper=100.0, measured=200.0)
        assert ok.ok and not bad.ok
        assert ok.ratio == pytest.approx(1.05)
        rendered = format_paper_checks([ok, bad], "t")
        assert "DEVIATES" in rendered and "ok" in rendered

    def test_paper_check_zero_paper_value(self):
        assert PaperCheck("q", paper=0.0, measured=0.0).ratio == 1.0

    def test_figure_data_render(self):
        figure = FigureData("Fig X", "demo")
        s = figure.new_series("ch_mad")
        s.add(4, 20.0, 0.2)
        s.add(1024, 40.0, 25.0)
        figure.notes.append("hello")
        text = figure.render()
        assert "transfer time" in text and "bandwidth" in text
        assert "note: hello" in text
        assert s.at(1024) == (40.0, 25.0)

    def test_series_at_unknown_size(self):
        figure = FigureData("f", "t")
        s = figure.new_series("x")
        s.add(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            s.at(999)


class TestSweeps:
    def test_paper_grids(self):
        assert LATENCY_SWEEP_SIZES == (1, 4, 16, 64, 256, 1024)
        assert BANDWIDTH_SWEEP_SIZES[-1] == 1024 * 1024

    def test_sweep_runs_measure_per_size(self):
        calls = []

        def fake_measure(size):
            calls.append(size)
            return summarize_roundtrips("x", size, [1000])

        results = sweep(fake_measure, [1, 2, 3])
        assert calls == [1, 2, 3]
        assert [r.size for r in results] == [1, 2, 3]


class TestSimPerfSuite:
    """Smoke the wall-clock micro-benchmark harness (quick probes only)."""

    @pytest.fixture(scope="class")
    def simperf(self):
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[1]
                / "benchmarks" / "perf" / "simperf.py")
        spec = importlib.util.spec_from_file_location("simperf", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_quick_suite_produces_positive_rates(self, simperf):
        record = simperf.run_suite(quick=True)
        assert record["schema"] == "simperf/1"
        probes = record["probes"]
        assert probes["engine_throughput"]["events_per_sec"] > 0
        assert probes["pingpong_rate"]["events_per_sec"] > 0
        # Quick mode skips the expensive end-to-end figure probe.
        assert "figure6_wall" not in probes

    def test_quick_pingpong_latency_matches_golden(self, simperf):
        # The probe must measure the same simulated machine the golden
        # digests pin (reps differ, so only one_way min is comparable).
        result = simperf.pingpong_rate(size=1024, reps=8)
        assert result["one_way_ns"] == 256816

    def test_baseline_check_is_exact_about_what_the_probes_compute(
            self, simperf):
        """Wall-clock is toleranced; virtual times and the event count
        are not."""
        import copy

        baseline = {"probes": {
            "figure6_wall": {"seconds": 1.0, "latency_checksum": 77},
            "pingpong_rate": {"size": 1024, "reps": 30, "one_way_ns": 500,
                              "events_executed": 1600}}}

        def failures(**edits):
            record = copy.deepcopy(baseline)
            for probe, fields in edits.items():
                record["probes"][probe].update(fields)
            return simperf.check_baseline(record, baseline, 0.30)

        assert failures() == []
        assert failures(figure6_wall={"seconds": 1.29}) == []
        assert failures(pingpong_rate={"events_executed": 1500}) == []
        assert "wall-clock" in failures(figure6_wall={"seconds": 1.31})[0]
        assert "checksum" in failures(
            figure6_wall={"latency_checksum": 78})[0]
        assert "one_way_ns" in failures(pingpong_rate={"one_way_ns": 501})[0]
        assert "more events" in failures(
            pingpong_rate={"events_executed": 1601})[0]
        # A --quick run (other reps, no figure) has nothing exact to say.
        assert failures(pingpong_rate={"reps": 8, "one_way_ns": 1,
                                       "events_executed": 9999}) == []

    def test_committed_baseline_parses_and_matches_schema(self, simperf):
        import json
        from pathlib import Path

        baseline_path = Path(__file__).resolve().parents[1] / "BENCH_simperf.json"
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema"] == "simperf/1"
        assert baseline["probes"]["figure6_wall"]["latency_checksum"] == 395655228
        before = baseline["before"]["probes"]
        after = baseline["probes"]
        # The record must demonstrate the >= 2x figure6 acceptance target.
        assert before["figure6_wall"]["seconds"] >= \
            2.0 * after["figure6_wall"]["seconds"]
        assert before["figure6_wall"]["latency_checksum"] == \
            after["figure6_wall"]["latency_checksum"]
