"""Compare two ledger records, or two checkouts over interleaved pairs.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --pairs 10 CHECKOUT_A CHECKOUT_B
        [--workload NAME ...]

A is the baseline (the parent commit), B the change.  One row per
(workload, end-to-end metric), each with its bound from
:mod:`metrics`; every ratio is printed with its base.  Verdicts:

``regressed``   B's median is worse than A's by more than the bound
                (any worsening at all for the exact metrics
                ``virtual_ms``, ``paper_mape_pct``, ``failed_share``).
``unresolved``  not regressed, but the min-max range of either side is
                wider than the bound and some B sample is no better
                than some A sample: the run cannot tell.
``improved``    B's median is better than A's by more than the bound.
``unchanged``   within the bound either way.

With ``--pairs N`` the two checkouts' own ``run.py`` are run N times
each (timed pass, seeds 0..N-1), alternating which side goes first, and
a row also reports in how many pairs B beat A; ``gain`` needs B to win
at least nine tenths of the pairs by more than the distance between
the quartiles of A's runs.  Exit status 1 on any ``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END

LEDGER = Path(__file__).resolve().parent


def samples(record: dict) -> dict[tuple[str, str], tuple[float, float, float]]:
    """(workload, metric) -> (value, lowest sample, highest sample)."""
    found = {}
    for workload, passes in record["workloads"].items():
        timed = passes.get("timed", {})
        for name, metric in timed.get("metrics", {}).items():
            value = metric["value"]
            found[workload, name] = (value, metric.get("min", value),
                                     metric.get("max", value))
    return found


def verdict(name: str, a_side: list, b_side: list) -> dict:
    """One row: medians, worsening against the bound, the verdict."""
    _, better, bound, _ = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    a = statistics.median(v for v, _, _ in a_side)
    b = statistics.median(v for v, _, _ in b_side)
    a_lo, a_hi = min(lo for _, lo, _ in a_side), max(hi for _, _, hi in a_side)
    b_lo, b_hi = min(lo for _, lo, _ in b_side), max(hi for _, _, hi in b_side)
    # Relative to the base; absolute when the base is 0 (failed_share).
    worse = sign * (b - a) / a if a else sign * (b - a)
    all_better = b_hi < a_lo if better == "lower" else b_lo > a_hi
    noisy = a and max(a_hi - a_lo, b_hi - b_lo) / abs(a) > bound
    if worse > bound:
        word = "regressed"
    elif noisy and not all_better:
        word = "unresolved"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    row = {"a": a, "b": b, "worse_by": worse, "bound": bound, "verdict": word}
    if len(a_side) > 1 and len(a_side) == len(b_side):
        wins = sum(sign * (vb - va) < 0
                   for (va, _, _), (vb, _, _) in zip(a_side, b_side))
        ties = sum(va == vb for (va, _, _), (vb, _, _) in zip(a_side, b_side))
        q = statistics.quantiles([v for v, _, _ in a_side], n=4)
        row.update(wins=wins, ties=ties, pairs=len(a_side), a_iqr=q[2] - q[0])
        if wins >= 0.9 * len(a_side) and sign * (a - b) > q[2] - q[0]:
            row["verdict"] = "gain"
    return row


def compare(a_records: list[dict], b_records: list[dict]) -> list[dict]:
    a_all = [samples(r) for r in a_records]
    b_all = [samples(r) for r in b_records]
    keys = [key for key in a_all[0]
            if all(key in s for s in a_all + b_all) and key[1] in END_TO_END]
    rows = []
    for workload, name in keys:
        row = verdict(name, [s[workload, name] for s in a_all],
                      [s[workload, name] for s in b_all])
        rows.append({"workload": workload, "metric": name, **row})
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<13} {'metric':<15} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>8} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        unit = END_TO_END[row["metric"]][0]
        ratio = f"{row['b'] / row['a']:.3f}x" if row["a"] else "-"
        line = (f"{row['workload']:<13} {row['metric']:<15} "
                f"{row['a']:>12.6g} {row['b']:>12.6g} {ratio:>8} "
                f"{100 * row['worse_by']:>8.2f}% {100 * row['bound']:>5.0f}%"
                f"  {row['verdict']}  (base {row['a']:.6g} {unit})")
        if "pairs" in row:
            line += (f"  B won {row['wins']}/{row['pairs']} pairs"
                     f" ({row['ties']} ties), A's IQR {row['a_iqr']:.3g}")
        print(line)


def run_pairs(a_dir: Path, b_dir: Path, pairs: int,
              workloads: list[str]) -> tuple[list[dict], list[dict]]:
    """Run both checkouts' ledgers ``pairs`` times, alternating order."""
    out = LEDGER / "out" / "pairs"
    out.mkdir(parents=True, exist_ok=True)
    records: dict[str, list[dict]] = {"A": [], "B": []}
    for pair in range(pairs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            checkout = a_dir if side == "A" else b_dir
            target = out / f"{side}-{pair}.json"
            command = [sys.executable,
                       str(checkout / "benchmarks" / "ledger" / "run.py"),
                       "--trace", "0", "--seed", str(pair),
                       "--output", str(target)]
            for name in workloads:
                command += ["--workload", name]
            print(f"# pair {pair}: side {side} ({checkout})", file=sys.stderr)
            subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            records[side].append(json.loads(target.read_text()))
    return records["A"], records["B"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="baseline: a record file, or with "
                                  "--pairs a checkout directory")
    parser.add_argument("b", help="the change, likewise")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run N interleaved A/B pairs of the two "
                             "checkouts instead of reading two records")
    parser.add_argument("--workload", action="append", default=[],
                        help="with --pairs: only these workloads")
    args = parser.parse_args(argv)

    if args.pairs:
        a_records, b_records = run_pairs(Path(args.a), Path(args.b),
                                         args.pairs, args.workload)
    else:
        a_records = [json.loads(Path(args.a).read_text())]
        b_records = [json.loads(Path(args.b).read_text())]
    rows = compare(a_records, b_records)
    print_rows(rows)
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {len(regressed)} regressed, {unresolved} "
          "unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
