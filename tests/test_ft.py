"""Rank-failure model and the ULFM-style fault-tolerance API.

End-to-end coverage of :mod:`repro.mpi.ft` and the rank-death machinery
in :mod:`repro.faults.death`: a dead rank is *detected* (heartbeats,
piggybacked liveness, transport timeouts, or the node-mate OS reap),
pending operations fail with ``ERR_PROC_FAILED``/``ERR_REVOKED`` instead
of hanging, and the ULFM recovery verbs — ``revoke``, ``shrink``,
``agree`` — rebuild a working communicator for the survivors.

Also here: the *negative plants* for the two FT checker invariants
(``revoked-delivery`` and ``dead-rank-leak``), which force the
conditions the production code is designed to prevent and assert the
online checker names them.
"""

import pytest

from repro.cluster import ClusterConfig, EngineConfig, MPIWorld, NodeSpec
from repro.errors import (
    CheckViolation,
    MPICommError,
    MPIProcFailedError,
    MPIRevokedError,
)
from repro.faults import FaultPlan
from repro.mpi.constants import ERR_PROC_FAILED, WORLD_CONTEXT
from repro.units import us


def _nodes(count, networks=("tcp", "sisci"), processes=1):
    return [NodeSpec(f"n{i}", networks=networks, processes=processes)
            for i in range(count)]


def _recovery_program(mpi, iterations=200):
    """Allreduce until the failure bites, then revoke/shrink/continue."""
    comm = mpi.comm_world
    failure = None
    for step in range(iterations):
        try:
            yield from comm.allreduce(comm.rank + 1)
        except MPIProcFailedError as exc:
            failure = ("proc-failed", exc.failed_rank)
            break
        except MPIRevokedError:
            failure = ("revoked", None)
            break
    if failure is None:
        return None
    comm.revoke()
    shrunk = yield from comm.shrink()
    total = yield from shrunk.allreduce(shrunk.rank + 1)
    agreed = yield from shrunk.agree(1)
    return (failure, shrunk.rank, shrunk.size, total, agreed)


# -- detection + recovery end to end -------------------------------------


class TestRankDeathRecovery:
    def _run(self, victim=2, size=4, **engine_kw):
        config = ClusterConfig(
            nodes=_nodes(size),
            fault_plan=FaultPlan.node_death(rank=victim, at=us(300)),
        )
        world = MPIWorld(config, engine_config=EngineConfig(
            seed=3, instrumentation=True, checker=True, **engine_kw))
        return world, world.run(_recovery_program)

    def test_every_survivor_fails_over_and_recovers(self):
        world, results = self._run()
        assert results[2] is None          # the victim never returns
        survivors = [r for r in results if r is not None]
        assert len(survivors) == 3
        for (kind, failed), new_rank, new_size, total, agreed in survivors:
            assert kind == "proc-failed"
            assert failed == 2             # the culprit is named
            assert new_size == 3           # dense shrunk communicator
            assert total == 6              # 1+2+3 on the survivors
            assert agreed == 1
        assert sorted(r[1] for r in survivors) == [0, 1, 2]

    def test_detection_metrics_emitted(self):
        world, _results = self._run()
        metrics = world.engine.instruments.metrics
        assert metrics.total("faults.node_deaths") == 1
        assert metrics.total("ft.peer_deaths") >= 1
        assert metrics.total("ft.ops_failed") >= 3
        assert metrics.total("ft.shrinks") == 3
        assert metrics.total("ft.agreements") == 3
        latencies = [m for m in metrics.collect()
                     if m.name == "ft.detection_latency_ns"]
        assert latencies and latencies[0].count >= 1

    def test_each_death_is_traced_once(self):
        # With instrumentation on, the facade's tracer *is*
        # engine.tracer: one record per death and per declaration, each
        # carrying every field.
        config = ClusterConfig(
            nodes=_nodes(3),
            fault_plan=FaultPlan.node_death(rank=1, at=us(250)),
        )
        world = MPIWorld(config, engine_config=EngineConfig(
            instrumentation=True))
        world.run(_recovery_program)
        tracer, metrics = world.engine.tracer, world.engine.instruments.metrics
        deaths = tracer.select("fault.node_death")
        assert [(r.time, r["rank"]) for r in deaths] == [(250_000, 1)]
        assert metrics.total("faults.node_deaths") == 1
        declared = tracer.select("ft.peer_death")
        assert len(declared) == metrics.total("ft.peer_deaths") >= 1
        for record in declared:
            assert set(record.fields) == {"rank", "reason", "silent_ns"}

    def test_recovery_is_deterministic(self):
        _w1, first = self._run()
        _w2, second = self._run()
        assert first == second

    def test_smp_node_mate_death_via_local_reap(self):
        # The victim shares a node with rank 0: smp_plug produces no
        # timeouts, so the survivor learns from the simulated OS reap.
        config = ClusterConfig(
            nodes=_nodes(2, processes=2),
            fault_plan=FaultPlan.node_death(rank=1, at=us(300)),
        )
        world = MPIWorld(config, engine_config=EngineConfig(
            seed=5, checker=True))
        results = world.run(_recovery_program)
        assert results[1] is None
        survivors = [r for r in results if r is not None]
        assert len(survivors) == 3
        assert all(r[2] == 3 and r[3] == 6 for r in survivors)


# -- revoke semantics ----------------------------------------------------


class TestRevoke:
    def test_revocation_poisons_every_rank(self):
        # No deaths: rank 0 revokes by fiat; the flood must abort the
        # other ranks' pending collectives with ERR_REVOKED.
        config = ClusterConfig(nodes=_nodes(3), ft=True)
        world = MPIWorld(config, engine_config=EngineConfig(checker=True))

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.revoke()
                with pytest.raises(MPIRevokedError):
                    yield from comm.allreduce(1)
                return "revoker"
            try:
                for _ in range(100):
                    yield from comm.allreduce(comm.rank)
            except MPIRevokedError:
                return "poisoned"
            return "never-saw-it"

        assert world.run(program) == ["revoker", "poisoned", "poisoned"]

    def test_shrink_of_intact_comm_and_agree_is_an_and(self):
        config = ClusterConfig(nodes=_nodes(3), ft=True)
        world = MPIWorld(config, engine_config=EngineConfig(checker=True))

        def program(mpi):
            comm = mpi.comm_world
            shrunk = yield from comm.shrink()   # nobody died: same shape
            flag = 0 if comm.rank == 1 else 1
            agreed = yield from shrunk.agree(flag)
            return (shrunk.rank, shrunk.size, agreed)

        results = world.run(program)
        # One dissenter makes the bitwise-AND agreement 0 everywhere.
        assert results == [(0, 3, 0), (1, 3, 0), (2, 3, 0)]

    def test_ft_api_requires_ft_session(self):
        world = MPIWorld(ClusterConfig(nodes=_nodes(2)))

        def program(mpi):
            comm = mpi.comm_world
            with pytest.raises(MPICommError):
                comm.revoke()
            with pytest.raises(MPICommError):
                yield from comm.shrink()
            return "ok"

        assert world.run(program) == ["ok", "ok"]


# -- nonblocking error paths ---------------------------------------------


class TestNonblockingErrors:
    def test_isend_and_irecv_to_dead_rank_fail(self):
        config = ClusterConfig(
            nodes=_nodes(3),
            fault_plan=FaultPlan.node_death(rank=2, at=us(200)),
        )
        world = MPIWorld(config, engine_config=EngineConfig(checker=True))

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 2:
                while True:            # dies mid-loop
                    yield from comm.send(1, dest=0, tag=1, size=64)
            if comm.rank == 1:
                return "idle"
            # rank 0: a posted receive and a send loop, both of which
            # must fail once the peer is declared dead — never hang.
            posted = comm.irecv(source=2, tag=99)
            send_error = None
            for step in range(500):
                request = comm.isend(("probe", step), dest=2, tag=1,
                                     size=2048)
                try:
                    yield from request.wait()
                except MPIProcFailedError as exc:
                    send_error = exc
                    break
            assert send_error is not None
            assert send_error.failed_rank == 2
            with pytest.raises(MPIProcFailedError):
                yield from posted.wait()
            status = posted.handle.status
            assert status.error == ERR_PROC_FAILED
            assert status.failed_rank == 2
            return "failed-fast"

        results = world.run(program)
        assert results[0] == "failed-fast"
        assert results[2] is None


# -- negative plants: the FT invariants must actually fire ----------------


class TestInvariantPlants:
    def test_revoked_delivery_plant(self):
        # Bypass the FT layer: tell the checker rank 1 saw comm_world
        # revoked, then deliver a message to rank 1 anyway.  The
        # matching must trip `revoked-delivery`.
        world = MPIWorld(ClusterConfig(nodes=_nodes(2)),
                         engine_config=EngineConfig(checker=True))
        world.engine.checker.on_revoke(1, [WORLD_CONTEXT])

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send("late", dest=1, tag=0, size=64)
            else:
                yield from comm.recv(source=0, tag=0)

        with pytest.raises(CheckViolation) as excinfo:
            world.run(program)
        assert excinfo.value.invariant == "revoked-delivery"
        assert excinfo.value.rank == 1

    def test_dead_rank_leak_plant(self):
        # Bypass the FT layer: declare rank 1 dead to the checker only,
        # leave a receive from it posted at finalize.  The finalize
        # audit must trip `dead-rank-leak` (not the generic leak).
        world = MPIWorld(ClusterConfig(nodes=_nodes(2)),
                         engine_config=EngineConfig(checker=True))
        world.engine.checker.on_rank_dead(1)

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.irecv(source=1, tag=4)   # never completed
            return "done"
            yield  # pragma: no cover - makes this a generator

        with pytest.raises(CheckViolation) as excinfo:
            world.run(program)
        assert excinfo.value.invariant == "dead-rank-leak"
        assert excinfo.value.rank == 0

    def test_killed_rank_pools_retired_and_plants_purged(self):
        # Object pools x the rank-failure model: a killed rank's pooled
        # request shells must be *retired* (cleared, never handed back
        # out), not recycled into live traffic.
        from repro.sim.coroutines import sleep

        config = ClusterConfig(
            nodes=_nodes(2),
            fault_plan=FaultPlan.node_death(rank=1, at=us(250)),
        )
        world = MPIWorld(config)

        def program(mpi):
            comm = mpi.comm_world
            if comm.rank == 1:
                yield sleep(us(1000))  # killed mid-sleep at 250us
            else:
                yield sleep(us(500))
            return "survived"

        results = world.run(program)
        assert results[0] == "survived"
        assert results[1] is None  # the victim never returns

        progress = world.envs[1].progress
        assert progress._pools_retired

        # Negative plant: force a shell at the retired pool and check the
        # free-list never hands it back out.
        planted = progress.acquire_recv(None, WORLD_CONTEXT, 0, 0, None)
        progress._recv_pool.push(planted)
        fresh = progress.acquire_recv(None, WORLD_CONTEXT, 0, 0, None)
        assert fresh is not planted, (
            "a retired recv pool must not recycle shells")

    def test_clean_ft_run_has_no_violations(self):
        config = ClusterConfig(
            nodes=_nodes(4),
            fault_plan=FaultPlan.node_death(rank=1, at=us(250)),
        )
        world = MPIWorld(config, engine_config=EngineConfig(
            checker=True, checker_raise=False))
        world.run(_recovery_program)
        assert list(world.engine.checker.violations) == []
