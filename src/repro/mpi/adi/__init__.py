"""The Abstract Device Interface (paper §2.2).

The ADI sits between the generic MPI layer and the devices.  It owns:

- :mod:`~repro.mpi.adi.packets` — envelopes and packet kind definitions;
- :mod:`~repro.mpi.adi.queues` — the posted-receive and unexpected-message
  queues with MPI envelope matching (these queues are shared by *all*
  devices of a process, which is what makes multi-device receives and
  ``MPI_ANY_SOURCE`` work);
- :mod:`~repro.mpi.adi.rhandle` — receive handles, which double as the
  ``MPID_RNDV_T`` rendezvous synchronization structure (§4.2.2);
- :mod:`~repro.mpi.adi.protocol` — eager/rendezvous transfer-mode
  selection against the device's single threshold field;
- :mod:`~repro.mpi.adi.device` — the device base class and the progress
  engine that devices deliver into.
"""

from repro.mpi.adi.device import Device, ProgressEngine
from repro.mpi.adi.packets import Envelope
from repro.mpi.adi.protocol import TransferMode, select_mode
from repro.mpi.adi.queues import PostedQueue, UnexpectedKind, UnexpectedQueue
from repro.mpi.adi.rhandle import RecvHandle, SendHandle

__all__ = [
    "Device",
    "Envelope",
    "PostedQueue",
    "ProgressEngine",
    "RecvHandle",
    "SendHandle",
    "TransferMode",
    "UnexpectedKind",
    "UnexpectedQueue",
    "select_mode",
]
