"""Child process of the ledger: one workload, one pass, one JSON line.

``run.py`` starts this script in a fresh interpreter per (workload,
pass) so import cost, allocator state and ``peak_rss_mb`` belong to
that workload alone.  The import of the repository is timed first (it
is part of ``setup_s``); :mod:`passes` does the rest.  The last line of
stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Fresh imports of the ``repro`` package timed for ``setup_s``.
IMPORT_SAMPLES = 3


def time_imports() -> list[float]:
    """Seconds to import ``repro.workloads``, sampled several times.

    The package tree is dropped from ``sys.modules`` and imported again
    for each sample; numpy and the stdlib stay loaded after the first,
    so the median is the cost of the repository's own modules.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        start = time.perf_counter()
        import repro.workloads  # noqa: F401
        samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    imports = time_imports()
    # Only now: these import the repository at module level.
    from passes import timed_pass, traced_pass
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    sizes = workload.smoke if args.smoke else workload.sizes
    run_pass = traced_pass if args.trace else timed_pass
    print(json.dumps(run_pass(args, workload, sizes, imports)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
