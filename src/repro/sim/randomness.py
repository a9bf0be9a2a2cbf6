"""Named, independently seeded random streams.

Every component that needs randomness asks the simulator for a *named*
stream (``sim.rng("link.loss.tor0")``).  Each name maps to its own
``random.Random`` seeded from ``sha256(root_seed || name)``, so:

- runs are reproducible given the root seed;
- adding a new random consumer does not perturb existing streams;
- two components never share a stream by accident.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngStreams:
    """Factory and cache of named deterministic random streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self._seed}:{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def episode_seed(seed: int, index: int) -> int:
    """Root seed of episode ``index`` of a run seeded ``seed`` (a chaos
    episode, verify episode, workload shard or shootout scenario).  The
    stride keeps the episodes of nearby run seeds from colliding."""
    return seed * 1_000_003 + index
