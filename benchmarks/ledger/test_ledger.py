"""Tests of the ledger itself (``pytest benchmarks/ledger``, smoke sizes).

Everything that touches the repository runs in child processes, as the
ledger does: pytest puts ``benchmarks/`` on ``sys.path`` (for
``benchmarks/conftest.py``), where ``profile.py`` shadows the stdlib
module that ``cProfile`` imports.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from layers import LAYERS, layer_of_module
from metrics import END_TO_END, PER_LAYER, benchmark_json

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")


def run_ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke run: both passes of all seven workloads."""
    output = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = run_ledger("--smoke", "--seconds", "0.1", "--output", str(output))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads(output.read_text())


def test_benchmark_json_is_generated_from_the_metric_table():
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert BENCHMARK == benchmark_json(whys)
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert "setup_s" in END_TO_END and all(
        0 <= bound <= 0.25 for _, _, bound, _ in END_TO_END.values())


def test_every_module_maps_to_a_named_layer():
    package = ROOT / "src" / "repro"
    unmapped = [str(path.relative_to(package))
                for path in sorted(package.rglob("*.py"))
                if layer_of_module(str(path.relative_to(package))) is None]
    assert unmapped == []
    assert {f"{layer}.self_s" for layer in LAYERS} <= PER_LAYER.keys()


def test_printed_names_are_those_of_benchmark_json(smoke):
    stdout, record = smoke
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert list(record["workloads"]) == workloads
    lines = [json.loads(line) for line in stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 2 * len(workloads)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for index, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 < line["attempted"]
        expected = per_layer if index % 2 else end_to_end
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == expected
    for name in workloads:
        assert f"{name} [timed]" in stdout and f"{name} [traced]" in stdout
    for name, unit in {**end_to_end, **per_layer}.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}(?= |$)",
                         stdout, re.M), name


def test_virtual_time_repeats_exactly(smoke):
    _, record = smoke
    # A second process; lossy_ring is the workload with seeded faults.
    again = run_ledger("--smoke", "--seconds", "0.1", "--trace", "0",
                       "--workload", "lossy_ring")
    assert again.returncode == 0
    for name, passes in record["workloads"].items():
        assert passes["timed"]["virtual_ns"] == passes["traced"]["virtual_ns"]
        assert passes["timed"]["virtual_ns"] > 0
        assert passes["timed"]["failed"] == passes["traced"]["failed"] == 0
    virtual_ms = record["workloads"]["lossy_ring"]["timed"]["metrics"][
        "virtual_ms"]["value"]
    assert re.search(rf"^  virtual_ms +{virtual_ms:.6g} sim_ms$", again.stdout, re.M)


def test_layer_self_time_accounts_for_the_traced_wall(smoke):
    _, record = smoke
    for name, passes in record["workloads"].items():
        traced = passes["traced"]
        self_s = sum(traced["metrics"][f"{layer}.self_s"]["value"]
                     for layer in LAYERS)
        wall = sum(traced["phase_s"]["profiled"].values())
        assert self_s == pytest.approx(wall, rel=0.05), name


def test_engine_raw_stays_inside_the_simulator(smoke):
    _, record = smoke
    metrics = record["workloads"]["engine_raw"]["traced"]["metrics"]
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    outside = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
                  if not layer.startswith("sim.") and layer != "host.other")
    assert outside < 0.01 * total
    assert metrics["mpi.adi.msgs"]["value"] == 0
    lossy = record["workloads"]["lossy_ring"]["traced"]["metrics"]
    assert lossy["madeleine.retransmits"]["value"] > 0
    assert lossy["check.violations"]["value"] == 0


def test_compare_flags_regressions_and_exact_drift(smoke, tmp_path, capsys):
    _, record = smoke
    rows = compare.compare([record], [record])
    assert {row["verdict"] for row in rows} <= {"unchanged", "unresolved"}
    # (smoke sizes skip the accuracy step, so no paper_mape_pct row)
    assert {row["metric"] for row in rows} \
        == set(END_TO_END) - {"paper_mape_pct"}

    slower = json.loads(json.dumps(record))
    wall = slower["workloads"]["p2p_eager"]["timed"]["metrics"]["wall_s"]
    for key in ("value", "min", "max"):
        wall[key] *= 1.5
    drifted = json.loads(json.dumps(record))
    drifted["workloads"]["p2p_bulk"]["timed"]["metrics"]["virtual_ms"][
        "value"] += 1e-6
    for changed, row_key in ((slower, ("p2p_eager", "wall_s")),
                             (drifted, ("p2p_bulk", "virtual_ms"))):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(record))
        b.write_text(json.dumps(changed))
        assert compare.main([str(a), str(a)]) == 0
        assert compare.main([str(a), str(b)]) == 1
        regressed = [(row["workload"], row["metric"])
                     for row in compare.compare([record], [changed])
                     if row["verdict"] == "regressed"]
        assert regressed == [row_key]
    assert "base" in capsys.readouterr().out


def test_a_hung_world_is_counted_not_waited_for():
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(LEDGER)!r}]
from types import SimpleNamespace
from repro.cluster.config import two_node_cluster
from repro.sim import EngineConfig
from passes import Rep, base_record
from workloads import Check, Workload, mpi_phase

class Stuck(Workload):
    name = "stuck"
    def generate(self, seed, sizes):
        return None
    def build(self, inputs, sizes, engine_config):
        def program(mpi):
            yield from mpi.comm_world.recv(source=1 - mpi.comm_world.rank)
        return [mpi_phase("stuck", two_node_cluster(), program, ops=2,
                          max_events=10_000, engine_config=engine_config)]
    def check(self, inputs, sizes, results):
        raise AssertionError("no results to check")

rep = Rep(Stuck(), 0, {{}}, EngineConfig())
assert rep.error.startswith("DeadlockError"), rep.error
record = base_record(SimpleNamespace(seed=0, smoke=True), Stuck(), {{}},
                     [rep], [0.1], None)
assert record["failed"] >= 1 and "DeadlockError" in record["notes"][0]
"""
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "rep failed" in done.stderr and "DeadlockError" in done.stderr


def test_exits_non_zero_without_the_repository(tmp_path):
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_ledger("--workload", "engine_raw", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
