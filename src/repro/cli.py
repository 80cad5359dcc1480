"""``python -m repro`` — the one front door to the reproduction.

Subcommands:

``run``
    Execute one job (any registered :mod:`repro.workloads.executors`
    kind) and print its JSON payload — the smallest unit of work the batch runner
    schedules, exposed for scripting and debugging.  ``--workload NAME``
    is sugar for the ``workload`` kind: it runs any workload in the
    unified registry (:mod:`repro.workloads`), micro or macro, with
    ``-p``/``--ranks`` overrides resolved against the workload's own
    parameter schema.
``sweep``
    Run one figure's measurement jobs through the parallel runner and
    render the figure; can check (or record) golden digests so CI can
    prove parallel == serial bit-for-bit.
``fuzz``
    The schedule-fuzz sweep.
``report``
    Reproduce the paper's tables and figures.

Every subcommand shares ``--workers N`` (process fan-out) and
``--cache DIR`` (content-addressed result cache; ``REPRO_CACHE_DIR``
sets the default directory for ``--cache`` with no argument).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Sequence

from repro.runner import (
    JobSpec,
    ResultCache,
    Runner,
    default_cache_dir,
    default_workers,
    digest_mismatches,
)


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU; default 1)")
    parser.add_argument("--cache", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="content-addressed result cache directory "
                             "(no argument: $REPRO_CACHE_DIR or "
                             ".repro-cache)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-job progress lines to stderr")


def _make_runner(args) -> Runner:
    cache = None
    if args.cache is not None:
        cache = ResultCache(args.cache) if args.cache else \
            ResultCache(default_cache_dir())
    workers = args.workers if args.workers > 0 else default_workers()
    out = (lambda line: print(line, file=sys.stderr)) if args.progress \
        else None
    return Runner(workers=workers, cache=cache, out=out)


def _parse_sizes(text: str | None) -> list[int] | None:
    if not text:
        return None
    return [int(part) for part in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _parse_param(text: str):
    """``key=value`` with JSON-decoded values (bare words stay strings)."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"parameter {text!r} is not of the form key=value")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def cmd_run(args) -> int:
    import repro.workloads as workloads
    from repro.workloads.executors import EXECUTORS

    if args.list:
        print("job kinds:")
        for kind in sorted(EXECUTORS):
            print(f"  {kind}")
        print("workloads (--workload NAME):")
        for name in workloads.names():
            wl = workloads.get(name)
            tags = ",".join(sorted(wl.tags))
            print(f"  {name:16s} [{tags}] {wl.description}")
        return 0
    if args.workload and args.kind:
        print("error: give either a job kind or --workload, not both",
              file=sys.stderr)
        return 2
    if not args.kind and not args.workload:
        print("error: a job kind or --workload is required (see --list)",
              file=sys.stderr)
        return 2
    params = dict(args.param or ())
    if args.ranks is not None:
        # Sugar for the common scaling knob: equivalent to -p ranks=N on
        # workloads and job kinds that take a world size.
        params["ranks"] = args.ranks
    kind = args.kind
    if args.workload:
        kind = "workload"
        params["workload"] = args.workload
        if args.check:
            params["check"] = True
        if args.metrics:
            params["metrics"] = True
        # Fail on typo'd names/params before a spec digest is minted.
        workloads.get(args.workload).resolve(
            {k: v for k, v in params.items()
             if k not in ("workload", "check", "metrics")})
    spec = JobSpec(kind=kind, params=params, seed=args.seed)
    runner = _make_runner(args)
    result = runner.run([spec])[0]
    if not result.ok:
        print(f"job {spec.display} failed: {result.error}", file=sys.stderr)
        return 1
    json.dump({"job": spec.canonical(), "digest": spec.digest,
               "result_digest": result.result_digest, "cached": result.cached,
               "payload": result.payload}, sys.stdout, indent=2,
              sort_keys=True)
    print()
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _figure_digests(plan, runner: Runner) -> tuple[dict[str, str], list]:
    """Run a plan's jobs; return {job digest: result digest} plus results."""
    results = runner.run(plan.jobs())
    failed = [r for r in results if not r.ok]
    if failed:
        for r in failed:
            print(f"job {r.spec.display} failed: {r.error}", file=sys.stderr)
        raise SystemExit(1)
    return {r.digest: r.result_digest for r in results}, results


def cmd_sweep(args) -> int:
    from repro.bench.figures import FIGURES, assemble_figure

    if args.list:
        for name in sorted(FIGURES):
            print(name)
        return 0
    if not args.figure:
        print("error: a figure name is required (see --list)",
              file=sys.stderr)
        return 2
    if args.figure not in FIGURES:
        print(f"error: unknown figure {args.figure!r}; known: "
              f"{sorted(FIGURES)}", file=sys.stderr)
        return 2
    plan = FIGURES[args.figure](_parse_sizes(args.sizes))
    runner = _make_runner(args)
    digests, results = _figure_digests(plan, runner)

    if args.write_goldens:
        with open(args.write_goldens, "w") as fh:
            json.dump({"figure": plan.name, "sizes": list(plan.sizes),
                       "jobs": digests}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} golden digests to {args.write_goldens}")

    status = 0
    if args.goldens:
        with open(args.goldens) as fh:
            golden = json.load(fh)
        mismatches = digest_mismatches(digests, golden["jobs"])
        extra = sum(want is None for _, want, _ in mismatches)
        for job_digest, want, got in mismatches:
            if want is not None:
                print(f"MISMATCH job {job_digest[:12]}: golden "
                      f"{want[:12]} != measured "
                      f"{(got or 'missing')[:12]}", file=sys.stderr)
        if extra:
            print(f"{extra} job(s) not present in goldens", file=sys.stderr)
        if mismatches:
            status = 1
        else:
            print(f"all {len(golden['jobs'])} result digests match "
                  f"{args.goldens}")

    if not args.quiet:
        print(assemble_figure(plan, results).render())
    return status


# ---------------------------------------------------------------------------
# fuzz (the old repro.check.fuzz CLI, runner-backed)
# ---------------------------------------------------------------------------

def cmd_fuzz(args) -> int:
    import repro.workloads as registry
    from repro.check.fuzz import run_sweep

    fuzzable = registry.names("fuzz")
    if args.list:
        for name in fuzzable:
            print(f"{name:16s} {registry.get(name).description}")
        return 0

    workloads = args.workloads or fuzzable
    unknown = [w for w in workloads if w not in registry.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: "
              f"{sorted(registry.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is not None:
        seeds: Sequence[int] = [args.seed]
    else:
        seeds = range(args.base_seed, args.base_seed + args.seeds)
    runner = _make_runner(args)
    failures = run_sweep(
        workloads, seeds, workload_seed=args.workload_seed,
        artifacts_dir=args.artifacts, workers=runner.workers,
        cache=runner.cache,
        progress=(lambda line: print(line, file=sys.stderr))
        if args.progress else None)
    total = len(workloads) * len(list(seeds))
    if failures:
        print(f"\n{len(failures)}/{total} runs failed")
        return 1
    print(f"\nall {total} runs clean")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    from repro.bench import figures
    from repro.bench.report import format_paper_checks

    runner = _make_runner(args)

    def run_tables():
        print(format_paper_checks(figures.table1_checks(runner),
                                  "Table 1: raw Madeleine (latency @4 B, "
                                  "bandwidth @8 MB)"))
        print()
        print(format_paper_checks(figures.table2_checks(runner),
                                  "Table 2: ch_mad summary (0 B / 4 B "
                                  "latency, 8 MB bandwidth)"))
        print()

    def run_figure(plan_builder):
        print(figures.build_figure(plan_builder(None), runner).render())
        print()

    targets_by_name: dict[str, Callable[[], None]] = {
        "tables": run_tables,
        "fig6": lambda: run_figure(figures.figure6_plan),
        "fig7": lambda: run_figure(figures.figure7_plan),
        "fig8": lambda: run_figure(figures.figure8_plan),
        "fig9": lambda: run_figure(figures.figure9_plan),
    }
    targets = args.targets or list(targets_by_name)
    unknown = [t for t in targets if t not in targets_by_name]
    if unknown:
        print(f"unknown targets {unknown}; pick from "
              f"{list(targets_by_name)}", file=sys.stderr)
        return 2
    start = time.time()
    for target in targets:
        print(f"### {target} " + "#" * (60 - len(target)))
        targets_by_name[target]()
    print(f"(wall time: {time.time() - start:.1f} s — every number above "
          "came out of the discrete-event simulation, except the four "
          "closed-source comparators, which are analytic curves "
          "calibrated to the paper's own figures)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MPICH/Madeleine reproduction: run, sweep, fuzz, "
                    "report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute one job and print its JSON payload")
    p_run.add_argument("kind", nargs="?", help="job kind (see --list)")
    p_run.add_argument("--workload", default=None, metavar="NAME",
                       help="run a registered workload (sugar for the "
                            "'workload' job kind; see --list)")
    p_run.add_argument("--check", action="store_true",
                       help="with --workload: run under the online "
                            "semantics checker")
    p_run.add_argument("--metrics", action="store_true",
                       help="with --workload: report the workload's "
                            "metrics of interest")
    p_run.add_argument("--param", "-p", action="append", type=_parse_param,
                       metavar="KEY=VALUE",
                       help="job parameter (JSON value or bare string); "
                            "repeatable")
    p_run.add_argument("--ranks", type=int, default=None, metavar="N",
                       help="world size for workloads and jobs that take "
                            "one (shorthand for -p ranks=N)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="spec seed (default 0)")
    p_run.add_argument("--list", action="store_true",
                       help="list registered job kinds and exit")
    _add_runner_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run one figure's jobs (parallel/cached) and "
                      "render it")
    p_sweep.add_argument("figure", nargs="?",
                         help="figure name (see --list)")
    p_sweep.add_argument("--sizes", default=None,
                         help="comma-separated message sizes "
                              "(default: the figure's paper grid)")
    p_sweep.add_argument("--goldens", default=None, metavar="FILE",
                         help="check result digests against this golden "
                              "file; non-zero exit on mismatch")
    p_sweep.add_argument("--write-goldens", default=None, metavar="FILE",
                         help="record job->result digests to FILE")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="skip rendering the figure tables")
    p_sweep.add_argument("--list", action="store_true",
                         help="list figure names and exit")
    _add_runner_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz MPI schedules under the online semantics "
                     "checker")
    p_fuzz.add_argument("--workload", action="append", dest="workloads",
                        help="workload(s) to run (default: all)")
    p_fuzz.add_argument("--seed", type=int, default=None,
                        help="run this single fuzz seed (repro mode)")
    p_fuzz.add_argument("--seeds", type=int, default=25,
                        help="sweep this many fuzz seeds (default 25)")
    p_fuzz.add_argument("--base-seed", type=int, default=0,
                        help="first fuzz seed of the sweep (default 0)")
    p_fuzz.add_argument("--workload-seed", type=int, default=0,
                        help="seed for the workload's own traffic schedule")
    p_fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write a trace artifact per failure into DIR")
    p_fuzz.add_argument("--list", action="store_true",
                        help="list bundled workloads and exit")
    _add_runner_args(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_report = sub.add_parser(
        "report", help="reproduce the paper's tables and figures")
    p_report.add_argument("targets", nargs="*",
                          help="tables fig6 fig7 fig8 fig9 (default: all)")
    _add_runner_args(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
