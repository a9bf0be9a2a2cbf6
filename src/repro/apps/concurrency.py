"""Concurrency-control building blocks for the TPC-C baselines (§7.3.2).

- :class:`LockTable` — exclusive locks with FIFO wait queues.  Callers
  acquire in globally sorted key order, so no deadlocks arise; what
  remains is exactly the phenomenon the paper measures: locks held
  across replication round trips serialize conflicting transactions.
- :class:`VersionedStore` — versioned records for OCC validation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, Tuple

from repro.sim import Future, Simulator


class LockTable:
    """Exclusive locks with FIFO waiters."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._owners: Dict[Hashable, Any] = {}
        self._waiters: Dict[Hashable, deque] = {}
        self.acquisitions = 0
        self.waits = 0

    def acquire(self, key: Hashable, owner: Any) -> Future:
        """Future resolves (with True) when the lock is granted."""
        granted = Future(self.sim)
        if key not in self._owners:
            self._owners[key] = owner
            self.acquisitions += 1
            granted.resolve(True)
        else:
            if self._owners[key] == owner:
                raise ValueError(f"{owner!r} already holds {key!r}")
            self.waits += 1
            self._waiters.setdefault(key, deque()).append((owner, granted))
        return granted

    def try_acquire(self, key: Hashable, owner: Any) -> bool:
        """No-wait acquisition (used by OCC's commit-time locking)."""
        if key in self._owners:
            return False
        self._owners[key] = owner
        self.acquisitions += 1
        return True

    def release(self, key: Hashable, owner: Any) -> None:
        if self._owners.get(key) != owner:
            raise ValueError(f"{owner!r} does not hold {key!r}")
        waiters = self._waiters.get(key)
        if waiters:
            next_owner, granted = waiters.popleft()
            self._owners[key] = next_owner
            self.acquisitions += 1
            if not waiters:
                del self._waiters[key]
            granted.resolve(True)
        else:
            del self._owners[key]

    def held(self, key: Hashable) -> bool:
        return key in self._owners


class VersionedStore:
    """Records with monotonically increasing versions (for OCC)."""

    def __init__(self) -> None:
        self._records: Dict[Hashable, Tuple[Any, int]] = {}

    def read(self, key: Hashable) -> Tuple[Any, int]:
        """Returns (value, version); unwritten records are (None, 0)."""
        return self._records.get(key, (None, 0))

    def write(self, key: Hashable, value: Any) -> int:
        _old, version = self._records.get(key, (None, 0))
        self._records[key] = (value, version + 1)
        return version + 1

    def version(self, key: Hashable) -> int:
        return self._records.get(key, (None, 0))[1]

    def __len__(self) -> int:
        return len(self._records)
