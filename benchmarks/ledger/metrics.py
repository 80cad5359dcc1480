"""Names, units, directions and bounds of every ledger metric.

One table, read by ``run.py`` (what to print), ``compare.py`` (what a
regression is), ``test_ledger.py`` and ``BENCHMARK.json``
(``python benchmarks/ledger/metrics.py`` prints the file's content).

Two clocks, and the unit says which: ``s``/``us`` are host time (what
the simulator takes), ``sim_ms``/``sim_us`` are simulated time (what
the modelled stack takes).

``bound`` is the share of the baseline's median by which a metric may
worsen before it counts as a regression; 0 means exact.  The exact
metrics (``virtual_ms``, ``paper_mape_pct``, ``failed_share``) are
simulated or counted, so they repeat bit for bit; they are end-to-end
metrics of the ledger and ``compare.py`` enforces them, but they stay
out of ``BENCHMARK.json``'s ``end_to_end`` list, which only admits
metrics that are never zero, exist on every workload and vary from run
to run.  There they appear as ``attempted``/``failed`` and as the
per-layer metrics ``sim.engine.virtual_ms`` and ``bench.paper_mape_pct``.
"""

from __future__ import annotations

import json

from layers import LAYERS

#: name -> (unit, better, bound, in BENCHMARK.json's end_to_end list)
END_TO_END: dict[str, tuple[str, str, float, bool]] = {
    "wall_s": ("s", "lower", 0.15, True),
    "ops_per_s": ("1/s", "higher", 0.15, True),
    "setup_s": ("s", "lower", 0.25, True),
    "peak_rss_mb": ("MB", "lower", 0.05, True),
    "virtual_ms": ("sim_ms", "lower", 0.0, False),
    "paper_mape_pct": ("%", "lower", 0.0, False),
    "failed_share": ("ratio", "lower", 0.0, False),
}

#: name -> (unit, better).  Per-layer metrics carry no bound.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "sim.engine.events": ("count", "lower"),
    "sim.engine.events_per_s": ("1/s", "higher"),
    "sim.engine.host_us_per_event": ("us", "lower"),
    "sim.engine.virtual_ms": ("sim_ms", "lower"),
    "sim.cpu.busy_virtual_ms": ("sim_ms", "lower"),
    "marcel.poll_wakeups": ("count", "lower"),
    "marcel.poll_idle_virtual_ms": ("sim_ms", "lower"),
    "madeleine.messages": ("count", "lower"),
    "madeleine.blocks": ("count", "lower"),
    "madeleine.bytes": ("bytes", "lower"),
    "madeleine.raw_host_us_per_msg": ("us", "lower"),
    "madeleine.retransmits": ("count", "lower"),
    "madeleine.duplicates": ("count", "lower"),
    "madeleine.acks": ("count", "lower"),
    "madeleine.retransmit_useful_ratio": ("ratio", "higher"),
    "faults.dropped": ("count", "lower"),
    "networks.rdma_writes": ("count", "lower"),
    "networks.rdma_reg_misses": ("count", "lower"),
    "ch_mad.packets": ("count", "lower"),
    "ch_mad.packets_per_msg": ("ratio", "lower"),
    "ch_mad.virtual_overhead_us.tcp": ("sim_us", "lower"),
    "ch_mad.virtual_overhead_us.sisci": ("sim_us", "lower"),
    "ch_mad.virtual_overhead_us.bip": ("sim_us", "lower"),
    "mpi.adi.msgs": ("count", "lower"),
    "mpi.adi.rndv_share": ("ratio", "lower"),
    "mpi.api.host_us_per_msg": ("us", "lower"),
    "mpi.api.over_madeleine_host_us_per_msg": ("us", "lower"),
    "cluster.build_s": ("s", "lower"),
    "cluster.import_s": ("s", "lower"),
    "runner.jobs": ("count", "lower"),
    "check.violations": ("count", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.observe_overhead_ratio": ("ratio", "lower"),
    "bench.paper_mape_pct": ("%", "lower"),
}

#: How long one driver run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 10


def benchmark_json(workloads) -> dict:
    """The content of ``BENCHMARK.json`` (``workloads``: name -> why)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, listed) in END_TO_END.items()
            if listed],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import WORKLOADS

    print(json.dumps(benchmark_json({w.name: w.why
                                     for w in WORKLOADS.values()}), indent=2))
