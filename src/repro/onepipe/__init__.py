"""1Pipe: causally and totally ordered unicast and scattering.

This package is the paper's primary contribution:

- :mod:`~repro.onepipe.barrier` — per-input-link barrier registers and the
  min-aggregation of equation (4.1), including the join protocol for new
  links (§4.2).
- :mod:`~repro.onepipe.incarnations` — the three switch implementations:
  programmable chip, switch CPU, and host delegation (§6.2).
- :mod:`~repro.onepipe.sender` / :mod:`~repro.onepipe.receiver` — the
  lib1pipe endpoint data path: send buffers, scattering credits, reorder
  buffers, barrier-gated delivery, ACK/NAK, retransmission (§4, §5.1, §6.1).
- :mod:`~repro.onepipe.api` — the Table 1 programming API.
- :mod:`~repro.onepipe.hostagent` — per-host agent: NIC-egress barrier
  stamping, host beacons, barrier state shared by colocated processes.
- :mod:`~repro.onepipe.controller` / :mod:`~repro.onepipe.failure` — the
  replicated controller and the 7-step failure-handling procedure (§5.2).
- :mod:`~repro.onepipe.cluster` — one-call assembly of a full 1Pipe
  deployment on a topology (the entry point used by examples and
  benchmarks).
"""

from repro.onepipe.api import Message, OnePipeEndpoint
from repro.onepipe.barrier import BarrierRegisterFile
from repro.onepipe.cluster import OnePipeCluster
from repro.onepipe.config import OnePipeConfig

__all__ = [
    "BarrierRegisterFile",
    "Message",
    "OnePipeCluster",
    "OnePipeConfig",
    "OnePipeEndpoint",
]
