"""The per-process MPI environment (MPI_Init state).

An :class:`MPIEnv` is handed to each rank's program coroutine.  It owns
the progress engine, the device set, device selection by destination
locality (§2.3: ch_self for self, smp_plug within a node, the inter-node
device otherwise), context-id allocation, and MPI_COMM_WORLD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError, MPIRankError
from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.constants import CONTEXTS_PER_COMM, WORLD_CONTEXT
from repro.mpi.group import Group

if TYPE_CHECKING:  # pragma: no cover
    from repro.madeleine.session import MadProcess
    from repro.mpi.communicator import Communicator


class MPIEnv:
    """Everything one MPI process needs at runtime."""

    def __init__(self, process: "MadProcess", world_rank: int,
                 node_of_rank: Sequence[int], byte_order: str = "little",
                 heterogeneity_conversion: bool = True):
        self.process = process
        self.rank = world_rank
        #: node index of every world rank (locality map for device selection).
        self.node_of_rank = tuple(node_of_rank)
        self.size = len(self.node_of_rank)
        self.node = self.node_of_rank[world_rank]
        self.progress = ProgressEngine(
            process, byte_order=byte_order,
            heterogeneity_conversion=heterogeneity_conversion)
        self.self_device: Device | None = None
        self.smp_device: Device | None = None
        self.inter_device: Device | None = None
        self._next_context = WORLD_CONTEXT + CONTEXTS_PER_COMM
        self.comm_world: "Communicator | None" = None
        self.finalized = False
        #: ULFM-style fault-tolerance state (:class:`repro.mpi.ft.FTState`);
        #: None when the cluster runs without a failure model.
        self.ft = None

    # -- wiring (cluster session) -----------------------------------------------

    def install_devices(self, self_device: Device,
                        smp_device: Device | None,
                        inter_device: Device | None) -> None:
        self.self_device = self_device
        self.smp_device = smp_device
        self.inter_device = inter_device

    def make_comm_world(self, world_group: Group | None = None) -> "Communicator":
        """Build MPI_COMM_WORLD.

        The cluster session passes one shared ``world_group`` for every
        rank (Group is immutable; per-env world groups were O(ranks²)
        memory).  Standalone envs build their own.
        """
        from repro.mpi.communicator import Communicator
        if world_group is None:
            world_group = Group(range(self.size))
        self.comm_world = Communicator(self, world_group,
                                       context_id=WORLD_CONTEXT)
        return self.comm_world

    # -- device selection (the ADI's multi-device dispatch, §2.3) ------------------

    def select_device(self, dest_world: int) -> Device:
        """Pick the device by destination locality."""
        if not 0 <= dest_world < self.size:
            raise MPIRankError(f"world rank {dest_world} out of range")
        if dest_world == self.rank:
            return self.self_device
        if self.node_of_rank[dest_world] == self.node:
            if self.smp_device is None:
                raise ConfigurationError(
                    f"ranks {self.rank} and {dest_world} share node "
                    f"{self.node} but smp_plug is not installed"
                )
            return self.smp_device
        if self.inter_device is None:
            raise ConfigurationError(
                f"rank {self.rank} has no inter-node device for rank "
                f"{dest_world}"
            )
        return self.inter_device

    # -- context ids ------------------------------------------------------------------

    def allocate_context(self) -> int:
        """Allocate a context-id pair for a new communicator.

        Communicator creation is collective and every process performs
        the same creations in the same order, so identical counters stay
        in lockstep across ranks (the standard MPICH assumption).
        """
        context = self._next_context
        self._next_context += CONTEXTS_PER_COMM
        return context

    # -- clock ------------------------------------------------------------------------

    def wtime(self) -> float:
        """MPI_Wtime: current simulated time in seconds."""
        return self.process.engine.now / 1e9

    # -- teardown -----------------------------------------------------------------------

    def shutdown(self) -> None:
        """MPI_Finalize teardown: stop device threads, kill daemons."""
        if self.finalized:
            return
        self.finalized = True
        for device in (self.self_device, self.smp_device, self.inter_device):
            if device is not None:
                device.shutdown()
        self.process.runtime.kill_daemons()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MPIEnv rank={self.rank}/{self.size} node={self.node}>"
