"""Schedule fuzzer: determinism, divergence, and the sweep harness.

The contract under test:

- one fuzz seed is one schedule — re-running ``(workload, seed)``
  reproduces the trace digest bit for bit (that's what makes the
  one-line repro command trustworthy);
- different fuzz seeds genuinely explore different interleavings
  (digests diverge) while user-visible results stay identical;
- the sweep harness catches both checker violations and
  schedule-dependent results, and prints the repro command.
"""

from repro.check import fuzz as fuzz_mod
from repro.check.fuzz import ScheduleFuzz, install_fuzz, run_sweep, run_workload
from repro.workloads import WORKLOADS, Workload
from repro.cluster import ClusterConfig, NodeSpec
from repro.sim import Engine


# ---------------------------------------------------------------------------
# the fuzzer itself
# ---------------------------------------------------------------------------

def test_install_fuzz_attaches_to_engine():
    engine = Engine()
    assert engine.fuzz is None
    fuzz = install_fuzz(engine, 7)
    assert engine.fuzz is fuzz
    assert fuzz.seed == 7
    assert fuzz.decisions == 0


def test_fuzz_draws_are_seed_deterministic():
    draws = []
    for _ in range(2):
        fuzz = ScheduleFuzz(Engine(), 11)
        draws.append(([fuzz.spawn_jitter() for _ in range(20)],
                      [fuzz.poller_phase("tcp@0") for _ in range(3)]))
    assert draws[0] == draws[1]
    other = ScheduleFuzz(Engine(), 12)
    assert [other.spawn_jitter() for _ in range(20)] != draws[0][0]


def test_poller_phase_is_per_name():
    fuzz = ScheduleFuzz(Engine(), 3)
    # Drawn from per-name namespaces: construction order cannot shift
    # one poller's phase by creating another first.
    first = fuzz.poller_phase("sci@0")
    fuzz.poller_phase("tcp@0")
    assert ScheduleFuzz(Engine(), 3).poller_phase("sci@0") == first


def test_ready_rotation_applies_at_configured_rate():
    from collections import deque
    fuzz = ScheduleFuzz(Engine(), 5, ready_rate=1.0)
    ready = deque(["a", "b", "c"])
    fuzz.perturb_ready(ready)
    assert list(ready) == ["b", "c", "a"]
    assert fuzz.decisions == 1
    never = ScheduleFuzz(Engine(), 5, ready_rate=0.0)
    ready = deque(["a", "b", "c"])
    never.perturb_ready(ready)
    assert list(ready) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# seed-sweep determinism on the bundled workloads
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_the_trace_bit_for_bit():
    first = run_workload("mixed", fuzz_seed=5)
    second = run_workload("mixed", fuzz_seed=5)
    assert first.ok and second.ok
    assert first.digest == second.digest
    assert first.results == second.results
    assert first.time_ns == second.time_ns
    assert first.decisions == second.decisions


def test_fuzz_seeds_change_the_schedule_not_the_results():
    runs = [run_workload("mixed", fuzz_seed=seed) for seed in range(3)]
    assert all(run.ok for run in runs)
    assert all(run.decisions > 0 for run in runs)
    # Schedules genuinely differ...
    assert len({run.digest for run in runs}) > 1
    # ...while every rank's user-visible result is identical.
    assert runs[0].results == runs[1].results == runs[2].results


def test_unfuzzed_run_is_the_deterministic_baseline():
    plain = run_workload("mixed", fuzz_seed=None)
    again = run_workload("mixed", fuzz_seed=None)
    assert plain.ok
    assert plain.decisions == 0
    assert plain.digest == again.digest
    fuzzed = run_workload("mixed", fuzz_seed=1)
    assert fuzzed.results == plain.results


def test_workloads_registry_is_complete():
    assert set(WORKLOADS) == {"pingpong", "collectives", "hier_collectives",
                              "multilane", "mixed", "lossy", "rank_death",
                              "rma_storm", "ml_training", "cfd_halo",
                              "ring_exchange"}
    for workload in WORKLOADS.values():
        assert workload.description
        assert "fuzz" in workload.tags  # every bundled workload is fuzzable


# ---------------------------------------------------------------------------
# the sweep harness
# ---------------------------------------------------------------------------

def test_sweep_smoke_is_clean():
    lines = []
    failures = run_sweep(["mixed"], range(3), out=lines.append)
    assert failures == []
    assert len(lines) == 3
    assert all(line.startswith("ok   mixed seed=") for line in lines)


def _leaky_build(workload_seed):
    del workload_seed
    config = ClusterConfig(
        nodes=[NodeSpec(f"n{i}", networks=("sisci",)) for i in range(2)])

    def program(mpi):
        comm = mpi.comm_world
        yield from comm.barrier()
        if comm.rank == 0:
            comm.irecv(source=1, tag=2)  # leaked on purpose

    return config, program


def test_sweep_reports_violation_with_repro_line(tmp_path):
    WORKLOADS["leaky"] = Workload("leaky", "planted leak", _leaky_build)
    try:
        lines = []
        failures = run_sweep(["leaky"], [4], artifacts_dir=str(tmp_path),
                             out=lines.append)
    finally:
        del WORKLOADS["leaky"]
    assert len(failures) == 1
    failure = failures[0]
    assert failure.kind == "violation"
    assert "finalize-leak" in failure.detail
    assert failure.repro == ("python -m repro fuzz "
                             "--workload leaky --seed 4")
    assert any(line.startswith("REPRO: ") for line in lines)
    artifact = tmp_path / "leaky-seed4.txt"
    assert artifact.exists()
    content = artifact.read_text()
    assert "REPRO:" in content
    assert "trace (" in content


def _timing_leak_build(workload_seed):
    # A program whose "result" includes virtual time: schedule-dependent
    # by construction, so the sweep's cross-seed comparison must flag it.
    config, program = WORKLOADS["mixed"].build(workload_seed)

    def wrapped(mpi):
        result = yield from program(mpi)
        return (result, mpi.process.engine.now)

    return config, wrapped


def test_sweep_flags_schedule_dependent_results():
    WORKLOADS["timing"] = Workload("timing", "planted timing leak",
                                   _timing_leak_build)
    try:
        failures = run_sweep(["timing"], range(3), out=lambda _line: None)
    finally:
        del WORKLOADS["timing"]
    assert failures
    assert all(f.kind == "results-diverge" for f in failures)
    assert "changed with the schedule" in failures[0].detail


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def test_cli_list_and_single_seed(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["fuzz", "--list"]) == 0
    listing = capsys.readouterr().out
    for name in WORKLOADS:
        assert name in listing
    assert cli_main(["fuzz", "--workload", "mixed", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok   mixed seed=2" in out
    assert "all 1 runs clean" in out


def test_legacy_fuzz_module_cli_is_gone():
    # The `python -m repro.check.fuzz` shim graduated out of existence;
    # the consolidated CLI owns the subcommand now.
    assert not hasattr(fuzz_mod, "main")
