"""The batch runner: specs, digests, cache, retry, parallel == serial."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner import (
    CACHE_SCHEMA,
    EXECUTORS,
    JobSpec,
    ResultCache,
    Runner,
    canonical_json,
    execute,
    payload_digest,
    register,
    run_specs,
)
from repro.errors import ConfigurationError


@pytest.fixture
def scratch_kind():
    """Register a throwaway executor kind; unregister on teardown."""
    registered = []

    def _register(kind, fn):
        EXECUTORS[kind] = fn
        registered.append(kind)
        return fn

    yield _register
    for kind in registered:
        del EXECUTORS[kind]


# ---------------------------------------------------------------------------
# spec digests
# ---------------------------------------------------------------------------

def test_same_spec_same_digest():
    a = JobSpec(kind="k", params={"x": 1, "y": [1, 2]}, seed=3)
    b = JobSpec(kind="k", params={"y": [1, 2], "x": 1}, seed=3,
                label="cosmetic")
    # Param insertion order and the display label are not code-relevant.
    assert a.digest == b.digest


@pytest.mark.parametrize("change", [
    {"params": {"x": 2, "y": [1, 2]}},          # value change
    {"params": {"x": 1, "y": [2, 1]}},          # list order is meaningful
    {"params": {"x": 1, "y": [1, 2], "z": 0}},  # added field
    {"params": {"x": 1}},                       # removed field
    {"seed": 4},
    {"kind": "other"},
])
def test_any_config_field_change_changes_digest(change):
    base = dict(kind="k", params={"x": 1, "y": [1, 2]}, seed=3)
    assert JobSpec(**base).digest != JobSpec(**{**base, **change}).digest


def test_digest_includes_schema_version():
    spec = JobSpec(kind="k")
    assert spec.canonical()["schema"] == CACHE_SCHEMA
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def test_unknown_kind_raises():
    with pytest.raises(ConfigurationError):
        execute(JobSpec(kind="no-such-kind"))


def test_registered_kind_executes(scratch_kind):
    scratch_kind("double", lambda params, seed: params["x"] * 2 + seed)
    assert execute(JobSpec(kind="double", params={"x": 5}, seed=1)) == 11


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_round_trip_and_digest_stability(tmp_path, scratch_kind):
    calls = []
    scratch_kind("echo", lambda params, seed: (calls.append(1),
                                               {"v": params["v"]})[1])
    cache = ResultCache(tmp_path)
    spec = JobSpec(kind="echo", params={"v": 7})

    first = Runner(cache=cache).run([spec])[0]
    assert not first.cached and first.attempts == 1
    assert len(calls) == 1
    assert len(cache) == 1

    second = Runner(cache=cache).run([spec])[0]
    assert second.cached and second.attempts == 0
    assert len(calls) == 1  # warm hit: the executor never ran again
    assert second.payload == first.payload
    assert second.result_digest == first.result_digest
    assert second.result_digest == payload_digest({"v": 7})


def test_cache_misses_on_any_field_change(tmp_path, scratch_kind):
    scratch_kind("echo", lambda params, seed: dict(params, seed=seed))
    cache = ResultCache(tmp_path)
    run_specs([JobSpec(kind="echo", params={"v": 7})], cache=cache)
    for changed in (JobSpec(kind="echo", params={"v": 8}),
                    JobSpec(kind="echo", params={"v": 7, "w": 0}),
                    JobSpec(kind="echo", params={"v": 7}, seed=1)):
        assert cache.get(changed) is None


def test_cache_rejects_corrupt_entry(tmp_path, scratch_kind):
    scratch_kind("echo", lambda params, seed: {"v": params["v"]})
    cache = ResultCache(tmp_path)
    spec = JobSpec(kind="echo", params={"v": 7})
    run_specs([spec], cache=cache)
    path = cache.path(spec.digest)
    envelope = json.loads(path.read_text())
    envelope["payload"]["v"] = 8  # payload no longer matches result_digest
    path.write_text(json.dumps(envelope))
    assert cache.get(spec) is None  # corruption is a miss, never a wrong hit
    # ... and re-running repairs the entry.
    result = run_specs([spec], cache=cache)[0]
    assert not result.cached and result.payload == {"v": 7}
    assert cache.get(spec) is not None


def test_warm_cache_misses_after_a_code_edit(tmp_path):
    """A cached result is served only to the code that made it: raising
    the SCI wire latency in a copy of the sources turns the warm cache
    into a miss with the new result; a docstring edit in the CLI, which
    computes nothing, still hits."""
    src = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).resolve().parents[1], src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cache = tmp_path / "cache"

    def run_pingpong():
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--workload", "pingpong",
             "--cache", str(cache)],
            check=True, text=True, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)))
        answer = json.loads(done.stdout)
        return answer["cached"], answer["result_digest"]

    def edit(relative, old, new):
        path = src / "repro" / relative
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    cached, before = run_pingpong()
    assert not cached
    assert run_pingpong() == (True, before)
    edit("networks/sisci.py", "wire_latency=us(1.85)", "wire_latency=us(3.85)")
    cached, after = run_pingpong()
    assert not cached and after != before
    edit("cli.py", '"""', '"""Edited. ')
    assert run_pingpong() == (True, after)


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------

def test_retry_after_worker_raise_on_first_attempt(tmp_path, scratch_kind):
    marker = tmp_path / "attempted"

    def flaky(params, seed):
        if not marker.exists():
            marker.write_text("1")
            raise RuntimeError("injected first-attempt crash")
        return {"ok": True}

    scratch_kind("flaky", flaky)
    result = Runner(retries=2, backoff_s=0).run(
        [JobSpec(kind="flaky")])[0]
    assert result.ok
    assert result.attempts == 2
    assert result.payload == {"ok": True}


def test_exhausted_retries_report_failure(scratch_kind):
    def always_fails(params, seed):
        raise RuntimeError("boom")

    scratch_kind("bad", always_fails)
    good = JobSpec(kind="mpi_pingpong", params={"size": 4, "reps": 2,
                                                "networks": ["sisci"]})
    results = Runner(retries=1, backoff_s=0).run(
        [JobSpec(kind="bad"), good])
    assert not results[0].ok
    assert "boom" in results[0].error
    assert results[0].attempts == 2  # first try + one retry
    assert results[1].ok  # one bad job does not sink the batch


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_pool_matches_serial_digests(tmp_path):
    specs = [JobSpec(kind="mpi_pingpong",
                     params={"size": size, "reps": 2, "networks": ["sisci"]},
                     label=f"pp:{size}")
             for size in (4, 256, 1024)]
    serial = Runner(workers=1).run(specs)
    pooled = Runner(workers=2).run(specs)
    assert [r.result_digest for r in serial] == \
        [r.result_digest for r in pooled]
    assert [r.payload for r in serial] == [r.payload for r in pooled]


# ---------------------------------------------------------------------------
# progress + metrics
# ---------------------------------------------------------------------------

def test_progress_lines_and_metrics(tmp_path, scratch_kind):
    scratch_kind("echo", lambda params, seed: {"v": params["v"]})
    lines = []
    cache = ResultCache(tmp_path)
    specs = [JobSpec(kind="echo", params={"v": v}, label=f"echo{v}")
             for v in range(3)]
    runner = Runner(cache=cache, out=lines.append)
    runner.run(specs)
    assert len(lines) == 3
    assert lines[0].startswith("[1/3]") and "echo0" in lines[0]
    assert runner.metrics.value("runner.jobs", status="submitted") == 3
    assert runner.metrics.value("runner.jobs", status="ok") == 3

    lines.clear()
    rerun = Runner(cache=cache, out=lines.append)
    rerun.run(specs)
    assert all("cached" in line for line in lines)
