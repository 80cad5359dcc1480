"""Fault injection: deterministic network misbehaviour for robustness work.

The paper's ``ch_mad`` is a *true multi-protocol* device — several
networks live in one MPI session — but on perfect fabrics that topology
is never exercised as a redundancy asset.  This package injects faults
(loss, corruption, latency spikes, NIC flaps, permanent link death) into
the network models so the reliability layer
(:mod:`repro.madeleine.reliable`) and ch_mad's channel failover have
something to survive.

Everything is deterministic: a :class:`FaultPlan` plus the engine seed
fully determines every injected fault, so faulty runs replay
bit-for-bit.

This package exports the plan and its helpers only.  The machinery a
plan switches on — :mod:`repro.faults.injector` and
:mod:`repro.faults.death` — is imported by the Madeleine session when a
plan (or ``ft``) asks for it; import its names from those modules.
"""

from repro.faults.plan import (
    FabricFaults,
    FaultPlan,
    LinkDown,
    NodeDeath,
    fabric_death,
    lossy_plan,
)

__all__ = [
    "FabricFaults",
    "FaultPlan",
    "LinkDown",
    "NodeDeath",
    "fabric_death",
    "lossy_plan",
]
