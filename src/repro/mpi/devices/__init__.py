"""MPICH devices.

The paper's three-device structure (§4.1, Figure 3):

- :mod:`~repro.mpi.devices.ch_self` — intra-process communication;
- :mod:`~repro.mpi.devices.smp_plug` — intra-node (shared memory);
- :mod:`~repro.mpi.devices.ch_mad` — **all** inter-node communication
  through Madeleine channels (the paper's contribution);
- :mod:`~repro.mpi.devices.ch_p4` — the classic MPICH TCP device,
  implemented as the Figure-6 baseline.  Not re-exported here: the
  cluster session imports it only for ``device="ch_p4"`` worlds.
"""

from repro.mpi.devices.ch_self import ChSelfDevice
from repro.mpi.devices.smp_plug import SmpPlugDevice
from repro.mpi.devices.ch_mad import ChMadDevice

__all__ = ["ChMadDevice", "ChSelfDevice", "SmpPlugDevice"]
