"""Concurrency-control building blocks for the TPC-C baselines (§7.3.2).

:class:`LockTable` holds exclusive locks with FIFO wait queues.  Callers
acquire in globally sorted key order, so no deadlocks arise; what remains
is exactly the phenomenon the paper measures: locks held across
replication round trips serialize conflicting transactions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable

from repro.sim import Future, Simulator


class LockTable:
    """Exclusive locks with FIFO waiters."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._owners: Dict[Hashable, Any] = {}
        self._waiters: Dict[Hashable, deque] = {}
        self.waits = 0

    def acquire(self, key: Hashable, owner: Any) -> Future:
        """Future resolves (with True) when the lock is granted."""
        granted = Future(self.sim)
        if key not in self._owners:
            self._owners[key] = owner
            granted.resolve(True)
        else:
            if self._owners[key] == owner:
                raise ValueError(f"{owner!r} already holds {key!r}")
            self.waits += 1
            self._waiters.setdefault(key, deque()).append((owner, granted))
        return granted

    def release(self, key: Hashable, owner: Any) -> None:
        if self._owners.get(key) != owner:
            raise ValueError(f"{owner!r} does not hold {key!r}")
        waiters = self._waiters.get(key)
        if waiters:
            next_owner, granted = waiters.popleft()
            self._owners[key] = next_owner
            if not waiters:
                del self._waiters[key]
            granted.resolve(True)
        else:
            del self._owners[key]
