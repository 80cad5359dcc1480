"""Smoke tests: every example must run end-to-end and self-verify.

The examples contain their own assertions (serial-reference checks,
topology checks), so importing and running main() is a meaningful
integration test of the whole stack.
"""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(name, argv=None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(f"{EXAMPLES}/{name}", run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "per-rank results: [0, 1]" in out


def test_heat_diffusion(capsys):
    run_example("heat_diffusion.py")
    out = capsys.readouterr().out
    assert "max |parallel - serial| = 0.00e+00" in out
    assert "all three networks" in out


def test_parallel_matvec(capsys):
    run_example("parallel_matvec.py")
    out = capsys.readouterr().out
    assert "max |parallel - serial|" in out


def test_master_worker(capsys):
    run_example("master_worker.py")
    out = capsys.readouterr().out
    assert "verified against the serial reference" in out


def test_observability_demo(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    run_example("observability_demo.py", ["--out", str(out_file)])
    out = capsys.readouterr().out
    assert "Metrics: multi-protocol TCP+SCI run" in out
    assert "chmad.packets" in out
    assert "MAD_SHORT_PKT" in out
    assert "Chrome trace:" in out
    assert out_file.exists()


def test_pingpong_cli(capsys):
    run_example("pingpong.py", ["--network", "sisci", "--sizes", "4", "1024",
                                "--reps", "3"])
    out = capsys.readouterr().out
    assert "ch_mad over sisci" in out
    assert "1024" in out


def test_pingpong_cli_raw(capsys):
    run_example("pingpong.py", ["--raw", "--network", "bip",
                                "--sizes", "4", "--reps", "2"])
    out = capsys.readouterr().out
    assert "raw Madeleine over bip" in out


def test_pingpong_cli_secondary(capsys):
    run_example("pingpong.py", ["--network", "sisci", "--secondary", "tcp",
                                "--sizes", "4", "--reps", "2"])
    out = capsys.readouterr().out
    assert "(+tcp polling thread)" in out


@pytest.mark.slow
def test_cluster_of_clusters(capsys):
    run_example("cluster_of_clusters.py")
    out = capsys.readouterr().out
    assert "elected eager/rendezvous switch point: 8192 bytes" in out


def test_fault_tolerance_demo(capsys):
    run_example("fault_tolerance_demo.py")
    out = capsys.readouterr().out
    assert "the whole SCI fabric dies" in out
    assert "channel failover events" in out
    assert "byte-identical" in out


def test_shrink_and_continue_demo(capsys):
    run_example("shrink_and_continue_demo.py")
    out = capsys.readouterr().out
    assert "what the rank death cost" in out
    assert "every survivor saw ERR_PROC_FAILED(failed=2)" in out
    assert "recovery is deterministic" in out


def test_trace_analysis(capsys):
    run_example("trace_analysis.py")
    out = capsys.readouterr().out
    assert "CPU attribution" in out
    assert "MAD_RNDV_PKT" in out


def test_heat2d_cart(capsys):
    run_example("heat2d_cart.py")
    out = capsys.readouterr().out
    assert "max |parallel - serial| = 0.00e+00" in out


def test_ml_training_demo(capsys):
    run_example("ml_training_demo.py")
    out = capsys.readouterr().out
    assert "all three variants agree on every per-step checksum" in out
    assert "speedup over naive" in out


def test_cfd_halo_demo(capsys):
    run_example("cfd_halo_demo.py")
    out = capsys.readouterr().out
    assert "RDMA-sized" in out
    assert "deterministic: seed 3 reproduces digest" in out
