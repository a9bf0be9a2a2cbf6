"""Protocol verification harness: oracle, fuzzer, conformance, shrinking.

The §2.1 delivery contract (total order, per-pair FIFO, failure
atomicity) is what every performance or refactoring PR must preserve.
This package makes that contract machine-checkable:

- :mod:`repro.verify.oracle` — a small, obviously-correct executable
  model of the contract.  Given the sends (with their NIC-egress
  timestamps), the failure cutoffs, and the per-receiver delivery
  traces, it computes the unique legal delivery order and the required
  reliable-delivery outcome, and diffs the actual traces against them.
- :mod:`repro.verify.episodes` — seeded workload fuzzer: deterministic
  random episodes (sender mix, best-effort/reliable traffic,
  scatter-gather groups, mid-run faults reusing
  :mod:`repro.chaos.schedule`) replayable from a serializable spec.
- :mod:`repro.verify.shrink` — greedy delta-debugging of a failing
  episode down to a minimal reproducer.
- :mod:`repro.verify.runner` — drives N episodes across the switch
  incarnations and folds the outcomes into a deterministic JSON report
  (``python -m repro.cli verify``).
"""

from repro.verify.episodes import (
    EpisodeRun,
    EpisodeSpec,
    SendOp,
    VerifyHarnessError,
    generate_episode,
    replay_episode,
)
from repro.verify.oracle import (
    Delivery,
    Divergence,
    EpisodeObservation,
    ReferenceOracle,
    SentMessage,
)
from repro.verify.runner import VerifyRunner, check_episode
from repro.verify.shrink import shrink_episode

__all__ = [
    "Delivery",
    "Divergence",
    "EpisodeObservation",
    "EpisodeRun",
    "EpisodeSpec",
    "ReferenceOracle",
    "SendOp",
    "SentMessage",
    "VerifyHarnessError",
    "VerifyRunner",
    "check_episode",
    "generate_episode",
    "replay_episode",
    "shrink_episode",
]
