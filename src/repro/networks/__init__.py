"""Network substrate: calibrated models of the paper's three networks.

The paper's testbed (§5.1) is a cluster of dual-PentiumII/450 nodes with
DEC 21140 Fast-Ethernet boards (TCP), Dolphin D310 boards (SISCI/SCI) and
32-bit LANai 4.3 Myrinet boards (BIP).  None of that hardware exists here,
so each network is a discrete-event model with per-protocol cost
parameters (:mod:`repro.networks.params`) calibrated so that the *raw
Madeleine* ping-pong reproduces the paper's Table 1 anchors.

Structure:

- :class:`~repro.networks.fabric.NetworkFabric` — one physical network:
  adapters, full-duplex serialization occupancy, delivery scheduling.
- :class:`~repro.networks.nic.ProtocolEndpoint` — per-node, per-network
  send path (CPU charges, chunked pipelining) and receive mailbox.
- :mod:`repro.networks.tcp` / :mod:`~repro.networks.sisci` /
  :mod:`~repro.networks.bip` — protocol-specific endpoints and calibrated
  parameter sets.
- :mod:`repro.networks.ib` — the InfiniBand model (RDMA, registration
  cache).  Not re-exported here: it is imported where it is used, and
  ``PROTOCOL_PARAMS["ib"]`` / ``ENDPOINT_CLASSES["ib"]`` import it on
  first lookup.
"""

from repro.networks.bip import BIP_MYRINET, BipEndpoint
from repro.networks.fabric import Adapter, Delivery, NetworkFabric
from repro.networks.memory import MemoryModel, PAPER_NODE_MEMORY
from repro.networks.nic import ProtocolEndpoint
from repro.networks.params import MemoryParams, ProtocolParams
from repro.networks.sisci import SISCI_SCI, SisciEndpoint
from repro.networks.tcp import TCP_FAST_ETHERNET, TcpEndpoint


class _Canned(dict):
    """``protocol -> value`` whose ``"ib"`` entry is imported on first
    lookup, so a run without InfiniBand never compiles networks/ib.py."""

    def __init__(self, ib_name: str, entries: dict):
        super().__init__(entries)
        self._ib_name = ib_name

    def __missing__(self, protocol: str):
        if protocol != "ib":
            raise KeyError(protocol)
        from repro.networks import ib
        value = self[protocol] = getattr(ib, self._ib_name)
        return value

    def get(self, protocol: str, default=None):
        try:
            return self[protocol]
        except KeyError:
            return default


PROTOCOL_PARAMS = _Canned("IB_4X", {
    "tcp": TCP_FAST_ETHERNET,
    "sisci": SISCI_SCI,
    "bip": BIP_MYRINET,
})

ENDPOINT_CLASSES = _Canned("IbEndpoint", {
    "tcp": TcpEndpoint,
    "sisci": SisciEndpoint,
    "bip": BipEndpoint,
})


def base_protocol(name: str) -> str:
    """Strip a rail suffix: ``"bip#1"`` -> ``"bip"``.

    Madeleine manages "multiple network adapters (NIC) for each of these
    protocols" (paper §3.1); additional rails of one protocol are named
    ``proto#N`` and share the protocol's parameters and endpoint class.
    """
    return name.split("#", 1)[0]

__all__ = [
    "Adapter",
    "BIP_MYRINET",
    "BipEndpoint",
    "Delivery",
    "ENDPOINT_CLASSES",
    "MemoryModel",
    "MemoryParams",
    "NetworkFabric",
    "PAPER_NODE_MEMORY",
    "PROTOCOL_PARAMS",
    "ProtocolEndpoint",
    "ProtocolParams",
    "SISCI_SCI",
    "SisciEndpoint",
    "TCP_FAST_ETHERNET",
    "TcpEndpoint",
]
