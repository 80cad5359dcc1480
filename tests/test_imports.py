"""Optional features are imported where they are switched on.

A plain run compiles none of the checker, the reliable transport, the
fault machinery, the InfiniBand model or ch_p4; switching one of them
on loads its own modules and no other.  Checked in a fresh interpreter,
since this test session has long imported everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

OPTIONAL = ("repro.check.checker", "repro.madeleine.reliable",
            "repro.faults.injector", "repro.faults.death",
            "repro.networks.ib", "repro.mpi.devices.ch_p4")

PROBE = """
import json, sys
OPTIONAL = %r

def loaded():
    return {m for m in OPTIONAL if m in sys.modules}

import repro.workloads
from repro.cluster import ClusterConfig, MPIWorld, NodeSpec
from repro.faults import lossy_plan
from repro.sim import EngineConfig

def pingpong(mpi):
    comm = mpi.comm_world
    if comm.rank == 0:
        yield from comm.send(b"ping", dest=1, tag=1)
        data, _ = yield from comm.recv(source=1, tag=2)
    else:
        data, _ = yield from comm.recv(source=0, tag=1)
        yield from comm.send(b"pong", dest=0, tag=2)
    return data

def run(network="sisci", engine_config=None, **kwargs):
    nodes = [NodeSpec(f"n{i}", networks=(network,)) for i in range(2)]
    world = MPIWorld(ClusterConfig(nodes=nodes, **kwargs),
                     engine_config=engine_config)
    assert world.run(pingpong) == [b"pong", b"ping"]

steps = {}
before = loaded()
for name, kwargs in [
        ("plain", {}),
        ("checker", {"engine_config": EngineConfig(checker=True)}),
        ("ch_p4", {"network": "tcp", "device": "ch_p4"}),
        ("ib", {"network": "ib"}),
        ("fault_plan", {"fault_plan": lossy_plan(0.01)})]:
    run(**kwargs)
    now = loaded()
    steps[name] = sorted(now - before)
    before = now
print(json.dumps(steps))
"""


def test_each_optional_feature_loads_only_its_own_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE % (OPTIONAL,)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    steps = json.loads(out.strip().splitlines()[-1])
    assert steps == {
        "plain": [],
        "checker": ["repro.check.checker"],
        "ch_p4": ["repro.mpi.devices.ch_p4"],
        "ib": ["repro.networks.ib"],
        # A plan implies the reliable transport; a plan without deaths
        # arms no failure detector.
        "fault_plan": ["repro.faults.injector", "repro.madeleine.reliable"],
    }


def _module_level_imports(tree: ast.Module):
    """Imported module names outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack.extend(ast.iter_child_nodes(node))


def test_sim_does_not_import_the_checker_at_module_level():
    sim = SRC / "repro" / "sim"
    offenders = [
        str(path.relative_to(SRC)) for path in sorted(sim.glob("*.py"))
        if "repro.check.checker" in set(
            _module_level_imports(ast.parse(path.read_text())))
    ]
    assert offenders == []
