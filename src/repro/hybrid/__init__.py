"""Hybrid-fidelity simulation: packet-level hot island + flow-level cold fabric.

The scale ceiling of the packet-level simulator is event-loop
throughput: every byte on every link costs events, so a k=8 fat-tree
(128 hosts) is the practical limit.  This package lifts the topology
ceiling to k=32 and beyond (10k–1M modeled hosts) the way "Scalable
Tail Latency Estimation for Data Center Networks" does — by spending
packet-level fidelity only where it buys accuracy:

- :mod:`repro.hybrid.fidelity` — the per-pod fidelity map: watched
  sender/receiver pods and pods touched by a fault schedule are *hot*
  (full packet/analytic-beacon fidelity); everything else is *cold*.
  Promotion cold→hot is automatic and monotone.
- :mod:`repro.hybrid.fabric` — the cold fabric: per-pod flow-level
  windowed model built from the closed forms in :mod:`repro.net.flow`:
  one loop steps every cold pod per window (pure integer state), and
  cross-pod flows reach their destination pod one window later.
- :mod:`repro.hybrid.engine` — the scenario driver: runs the cold
  fabric, applies backpressure promotions to a fixed point, couples
  aggregate cold congestion into the hot island's core links, drives
  watched traffic through a real :class:`repro.onepipe.OnePipeCluster`,
  checks the §2.1 reference oracle on the hybrid delivery trace, and
  emits the deterministic ``repro.hybrid/1`` report (byte-identical
  across runs — see the ``hyperscale-smoke`` CI job).

See docs/HYPERSCALE.md for the fidelity model and accuracy envelope.
"""

from repro.hybrid.engine import (
    HyperscaleScenario,
    SCENARIOS,
    run_hyperscale,
)
from repro.hybrid.fidelity import FIDELITY_COLD, FIDELITY_HOT, FidelityMap

__all__ = [
    "FIDELITY_COLD",
    "FIDELITY_HOT",
    "FidelityMap",
    "HyperscaleScenario",
    "SCENARIOS",
    "run_hyperscale",
]
