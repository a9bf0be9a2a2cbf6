"""Total-order broadcast baselines compared against 1Pipe in Fig. 8.

- :mod:`~repro.baselines.sequencer` — logically centralized sequencer,
  either a programmable switch (NO-Paxos/Eris style) or a host NIC
  process (FaSST style); all ordered traffic detours through it.
- :mod:`~repro.baselines.token` — token-ring total order: only the token
  holder may broadcast (Totem style).
- :mod:`~repro.baselines.lamport` — Lamport logical timestamps with the
  classic per-interval timestamp-exchange optimization: a message is
  deliverable once every peer's clock passed its timestamp.
- :mod:`~repro.baselines.epto` — EpTO epidemic total order: balls of
  events gossiped for a TTL round bound, delivered by logical timestamp
  once stable (probabilistic agreement, churn tolerant).
- :mod:`~repro.baselines.switchpaxos` — in-network Paxos: a core-switch
  coordinator stamps instances, spine/ToR acceptor engines accumulate an
  f+1 quorum along the distribution path, hosts learn and nack holes.

All five share the :class:`~repro.baselines.common.BroadcastGroup`
interface.  The shootout runner (:mod:`~repro.baselines.shootout`)
drives all of them — plus 1Pipe — through identical seeded chaos
schedules and judges every delivered log with the §2.1 reference
oracle, held to what each protocol promises (see docs/BASELINES.md).
"""

from repro.baselines.common import BroadcastGroup, BroadcastMember
from repro.baselines.epto import EptoBroadcast
from repro.baselines.lamport import LamportBroadcast
from repro.baselines.sequencer import SequencerBroadcast
from repro.baselines.shootout import ShootoutRunner
from repro.baselines.switchpaxos import SwitchPaxosBroadcast
from repro.baselines.token import TokenRingBroadcast

__all__ = [
    "BroadcastGroup",
    "BroadcastMember",
    "EptoBroadcast",
    "LamportBroadcast",
    "SequencerBroadcast",
    "ShootoutRunner",
    "SwitchPaxosBroadcast",
    "TokenRingBroadcast",
]
