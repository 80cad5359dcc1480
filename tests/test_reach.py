"""The reachability gate (benchmarks/perf/reach.py) on a synthetic package.

A small package is traced through the gate's own ``sitecustomize`` hook
in a child process, then compared against the ``def``s ``ast`` finds:
method and nested qualnames, decorated functions (whose code objects
start at the first decorator), the ``__repr__`` exemption, and both
ways the verdict fails.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "reach.py"

PACKAGE = '''\
import functools


def used():
    return helper()


def helper():
    def inner():
        return 1

    def never():
        return 2

    return inner()


def unused():
    return 0


@functools.lru_cache(maxsize=None)
def cached():
    return 3


@functools.lru_cache(maxsize=None)
def cached_unused():
    return 4


class Box:
    def __init__(self):
        self.value = used()

    @property
    def size(self):
        return self.value

    @staticmethod
    def spare():
        return None

    def __repr__(self):
        return "<Box>"

    class Inner:
        def deep(self):
            return 5
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_gate", REACH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def traced(reach, tmp_path_factory):
    """``(defs, unreached)`` of the synthetic package after one run."""
    root = tmp_path_factory.mktemp("reach")
    package = root / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PACKAGE)
    script = (f"import sys; sys.path.insert(0, {str(root)!r}); "
              "from pkg import mod; box = mod.Box(); box.size; mod.cached()")
    work = root / "work"
    work.mkdir()
    entered = reach.trace([("synthetic", [sys.executable, "-c", script])],
                          work)
    defs = reach.collect_defs(package)
    return defs, reach.unreached(defs, entered)


def test_qualnames_follow_python(traced):
    defs, _ = traced
    names = {d.qualname for d in defs.values()}
    assert {"used", "helper", "helper.<locals>.inner",
            "helper.<locals>.never", "Box.__init__", "Box.size",
            "Box.Inner.deep", "cached"} <= names
    entry = next(d for d in defs.values() if d.qualname == "Box.Inner.deep")
    assert entry.entry == "mod.py::Box.Inner.deep"


def test_decorated_defs_start_at_their_decorator(traced):
    defs, missed = traced
    cached = next(d for d in defs.values() if d.qualname == "cached")
    assert PACKAGE.splitlines()[cached.first - 1].startswith("@functools")
    missed_names = {d.qualname for d in missed}
    # Entered through their decorators: matched, so not reported.
    assert "cached" not in missed_names and "Box.size" not in missed_names
    assert "cached_unused" in missed_names


def test_unreached_set_and_repr_exemption(traced):
    _, missed = traced
    assert [d.qualname for d in missed] == [
        "helper.<locals>.never", "unused", "cached_unused", "Box.spare",
        "Box.Inner.deep"]
    assert "Box.__repr__" not in {d.qualname for d in missed}


def test_listed_unreached_defs_pass(reach, traced):
    _, missed = traced
    allow = reach.parse_allow("\n".join(
        f"{d.entry}  public-api (tests/test_reach.py)" for d in missed)
        + "\n# a comment line\n")
    assert reach.verdict(missed, allow) == []
    assert reach.span(missed) == sum(d.last - d.first + 1 for d in missed)


def test_an_unlisted_unreached_def_fails(reach, traced):
    _, missed = traced
    allow = {d.entry: "diagnosis" for d in missed
             if d.qualname != "unused"}
    (problem,) = reach.verdict(missed, allow)
    assert problem.startswith("unreached and not listed: mod.py::unused")


def test_a_stale_entry_fails(reach, traced):
    _, missed = traced
    allow = {d.entry: "diagnosis" for d in missed}
    allow["mod.py::used"] = "diagnosis"         # reached now
    allow["mod.py::deleted"] = "failure-path"   # no longer exists
    assert sorted(reach.verdict(missed, allow)) == [
        "listed but reached or gone (delete the line): mod.py::deleted",
        "listed but reached or gone (delete the line): mod.py::used"]


def test_reasons_come_from_the_vocabulary(reach):
    with pytest.raises(ValueError, match="line 1"):
        reach.parse_allow("mod.py::f  because I said so")
    with pytest.raises(ValueError, match="twice"):
        reach.parse_allow("mod.py::f  diagnosis\nmod.py::f  diagnosis")
