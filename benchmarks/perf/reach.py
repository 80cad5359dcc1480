"""Reachability gate: the product is what its front ends run.

Every function under ``src/repro`` must be entered by at least one
front end (the CLI, the exact-behaviour guard, the ledger, the
benchmarks, the examples), or be named in ``reach_allow.txt`` with a
reason.  The gate runs every front end below in a child process whose
``sitecustomize`` installs a ``sys.settrace`` hook (``settrace``, not
``setprofile``: the ledger's profiled pass owns the profile slot).  The
hook records each code object a Python frame starts, and an ``atexit``
handler writes them out.  Each front end runs with one worker:
forked pool workers exit without running ``atexit``, so their calls
would be lost.

The entered code objects, keyed by ``(file, first line, name)``, are
subtracted from the ``def``\\ s that :mod:`ast` finds.  A decorated
function's code object starts at its first decorator, so that is where
a def's key starts too.  ``__repr__`` and ``__str__`` are exempt.

The gate fails on an unreached function that is not listed, and on a
listed one that is reached again or no longer exists, so the list can
only shrink.  Each list line is ``path::qualname  reason``; the reason
starts with a word of :data:`REASONS`, optionally followed by the test
or CI job that covers the function in parentheses.

Usage::

    python benchmarks/perf/reach.py          # about 2-3 minutes
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
ALLOW = Path(__file__).with_name("reach_allow.txt")

#: Never reported: debug aids.
EXEMPT = frozenset({"__repr__", "__str__"})

#: The first word of every allow-list reason.
REASONS = {
    "failure-path": "an error or fault path that no front end provokes",
    "diagnosis": "explains a failure (wait-for graph, violation text)",
    "public-api": "a single entry point into machinery front ends reach",
    "parallel-path": "runs only with several workers or processes",
    "fuzz-path": "a schedule perturbation only the CI fuzz sweep reaches",
    "load-path": "runs only under load no front end creates",
    "interface": "a protocol, abstract or null-object method",
    "item-13": "finalize by MAD_TERM_PKT (ROADMAP item 13)",
    "item-15": "derived datatypes (ROADMAP item 15)",
}

WORKLOADS = ("pingpong", "collectives", "hier_collectives", "multilane",
             "mixed", "lossy", "rank_death", "rma_storm", "ring_exchange",
             "ml_training", "cfd_halo")

#: Written into the child's ``PYTHONPATH`` as ``sitecustomize.py``.
HOOK = '''\
import atexit, os, sys, threading

_out = os.environ.get("REPRO_REACH_OUT")
if _out:
    _seen = set()

    def _trace(frame, event, arg):
        _seen.add(frame.f_code)

    sys.settrace(_trace)
    threading.settrace(_trace)

    @atexit.register
    def _dump():
        sys.settrace(None)
        path = os.path.join(_out, "%d-%d.txt" % (os.getpid(), id(_seen)))
        with open(path, "w") as fh:
            for code in list(_seen):
                fh.write("%s\\t%d\\t%s\\n" % (
                    os.path.realpath(code.co_filename),
                    code.co_firstlineno, code.co_name))
'''


def front_ends(tmp: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every front end, each run with one worker."""
    repro = [sys.executable, "-m", "repro"]
    runs = []
    for name in WORKLOADS:
        runs.append((f"run {name} --metrics",
                     repro + ["run", "--workload", name, "--metrics"]))
        runs.append((f"run {name} --check",
                     repro + ["run", "--workload", name, "--check"]))
    runs.append(("report", repro + ["report"]))
    runs.append(("fuzz", repro + ["fuzz", "--workload", "pingpong",
                                  "--workload", "mixed", "--seeds", "2"]))
    sweep = repro + ["sweep", "figure6_tcp", "--sizes", "4,1024",
                     "--workers", "1", "--quiet", "--cache",
                     str(tmp / "cache")]
    runs.append(("sweep cold", sweep))
    runs.append(("sweep warm", sweep))
    runs.append(("guard --quick", [sys.executable, "benchmarks/perf/guard.py",
                                   "--quick", "--workers", "1"]))
    runs.append(("ledger --smoke", [sys.executable,
                                    "benchmarks/ledger/run.py", "--smoke"]))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        argv = [sys.executable, str(example.relative_to(REPO_ROOT))]
        if example.name == "observability_demo.py":
            argv += ["--out", str(tmp / "trace.json")]
        runs.append((f"example {example.name}", argv))
    runs.append(("pytest benchmarks",
                 [sys.executable, "-m", "pytest", "benchmarks", "-q",
                  "--ignore", "benchmarks/ledger", "--benchmark-disable",
                  "-p", "no:cacheprovider"]))
    return runs


# -- what exists --------------------------------------------------------------


@dataclass(frozen=True)
class Def:
    """One ``def`` under the source root."""

    path: str        # relative to the source root, '/'-separated
    qualname: str    # Python's __qualname__
    first: int       # first decorator line, else the ``def`` line
    last: int

    @property
    def entry(self) -> str:
        return f"{self.path}::{self.qualname}"


def collect_defs(root: Path) -> dict[tuple[str, int, str], Def]:
    """Every function under ``root``, keyed as the hook keys code objects:
    ``(absolute file, first line, name)``."""
    defs = {}
    for file in sorted(root.rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        tree = ast.parse(file.read_text(), filename=str(file))
        for node, qualname in _walk(tree, ""):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            defs[(os.path.realpath(file), first, node.name)] = Def(
                rel, qualname, first, node.end_lineno)
    return defs


def _walk(node: ast.AST, prefix: str):
    """Yield ``(function node, qualname)`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield child, qualname
            yield from _walk(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


# -- what runs ----------------------------------------------------------------


def read_entered(out: Path) -> set[tuple[str, int, str]]:
    """Keys of every code object the traced processes started."""
    entered = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first, name = line.split("\t")
            entered.add((filename, int(first), name))
    return entered


def trace(runs: list[tuple[str, list[str]]], tmp: Path) -> set:
    """Run every front end under the hook; the keys they entered."""
    site = tmp / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(HOOK)
    out = tmp / "out"
    out.mkdir()
    env = dict(os.environ, REPRO_REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
    for label, argv in runs:
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=REPO_ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        print(f"  {label:<34} {time.perf_counter() - start:6.1f} s",
              flush=True)
        if done.returncode != 0:
            raise SystemExit(f"front end {label!r} failed "
                             f"({done.returncode}):\n{done.stderr[-2000:]}")
    return read_entered(out)


# -- the verdict ---------------------------------------------------------------


def unreached(defs: dict, entered: set) -> list[Def]:
    """Defs no front end entered, less the exempt ones, in file order."""
    missed = [d for key, d in defs.items()
              if key not in entered and key[2] not in EXEMPT]
    return sorted(missed, key=lambda d: (d.path, d.first))


def parse_allow(text: str) -> dict[str, str]:
    """``entry -> reason`` from allow-list text; raises on a bad line."""
    allow = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, reason = line.partition(" ")
        reason = reason.strip()
        word = reason.split(" ", 1)[0]
        if "::" not in entry or word not in REASONS:
            raise ValueError(
                f"allow-list line {number}: expected 'path::qualname  "
                f"<{'|'.join(REASONS)}> [(where)]', got {raw!r}")
        if entry in allow:
            raise ValueError(f"allow-list line {number}: {entry} twice")
        allow[entry] = reason
    return allow


def verdict(missed: list[Def], allow: dict[str, str]) -> list[str]:
    """Every failure: an unlisted unreached def, or a listed entry that
    no unreached def matches (reached again, renamed or deleted)."""
    entries = {d.entry for d in missed}
    problems = [f"unreached and not listed: {d.entry} "
                f"(lines {d.first}-{d.last})"
                for d in missed if d.entry not in allow]
    problems += [f"listed but reached or gone (delete the line): {entry}"
                 for entry in allow if entry not in entries]
    return problems


def span(defs: list[Def]) -> int:
    """Source lines the defs cover (nested defs counted once)."""
    return len({(d.path, line) for d in defs
                for line in range(d.first, d.last + 1)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args(argv)

    allow = parse_allow(ALLOW.read_text())
    defs = collect_defs(SRC / "repro")
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        runs = front_ends(Path(tmp))
        print(f"tracing {len(runs)} front ends")
        entered = trace(runs, Path(tmp))
    missed = unreached(defs, entered)
    print(f"unreached: {len(missed)} of {len(defs)} functions, "
          f"{span(missed)} lines ({len(allow)} allow-list entries)")
    problems = verdict(missed, allow)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        print(f"{len(problems)} problem(s); see {ALLOW.name}")
        return 1
    print("ok: every unreached function is listed with a reason")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
