"""Measurement primitives used by tests and the benchmark harness.

These are intentionally simple, allocation-light collectors:

- :class:`Histogram` — keeps raw samples; mean/std/percentiles on demand.
- :class:`Counter` — monotonically increasing named counters with rates.
- :class:`TimeSeries` — (time, value) pairs, e.g. queue depth over time.
- :class:`WindowedRate` — events per second over a sliding measurement
  window, used for throughput numbers quoted "at steady state".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank position of the ``p``-th percentile among
    ``n`` sorted samples: ``ceil(p/100 * n)``, and 1 for ``p == 0``.

    The rank is computed from the *decimal* value of ``p``: in binary
    floating point ``99.9 / 100.0 * 1000`` is ``999.0000000000001``,
    whose ceil is a full rank high (p99.9 of 1000 samples would be the
    max), and truncating ``p * n`` first is a rank low.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


class Histogram:
    """Raw-sample histogram with summary statistics.

    >>> h = Histogram()
    >>> for v in [1, 2, 3, 4, 5]:
    ...     h.add(v)
    >>> h.mean()
    3.0
    >>> h.percentile(50)
    3
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        samples = self._samples
        if samples and value < samples[-1]:
            self._sorted = False
        samples.append(value)

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return sum(self._samples) / len(self._samples)

    def std(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean()
        var = sum((s - mu) ** 2 for s in self._samples) / (len(self._samples) - 1)
        return math.sqrt(var)

    def min(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return min(self._samples)

    def max(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return max(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self._samples:
            raise ValueError("empty histogram")
        rank = nearest_rank(p, len(self._samples))
        self._ensure_sorted()
        return self._samples[rank - 1]

    def summary(self) -> Dict[str, float]:
        """Mean/std/min/p50/p95/p99/max in one dict (for results files)."""
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.min(),
            "p5": self.percentile(5),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }


class Counter:
    """A bag of named monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def rate(self, name: str, duration_ns: int) -> float:
        """Events per second over ``duration_ns`` of simulated time."""
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        return self.get(name) * 1e9 / duration_ns


class TimeSeries:
    """(time, value) samples, e.g. for buffer occupancy over time."""

    def __init__(self) -> None:
        self._times: List[int] = []
        self._values: List[float] = []

    def record(self, time: int, value: float) -> None:
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def points(self) -> List[Tuple[int, float]]:
        return list(zip(self._times, self._values))

    def max_value(self) -> float:
        if not self._values:
            raise ValueError("empty time series")
        return max(self._values)

    def last_value(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def time_average(self) -> float:
        """Time-weighted average assuming step interpolation."""
        if len(self._times) < 2:
            raise ValueError("need at least two points")
        total = 0.0
        for i in range(len(self._times) - 1):
            total += self._values[i] * (self._times[i + 1] - self._times[i])
        span = self._times[-1] - self._times[0]
        if span <= 0:
            raise ValueError("zero time span")
        return total / span


class WindowedRate:
    """Counts events after a warmup instant; yields steady-state rates.

    Benchmarks warm the system up, then measure over a window so transient
    startup effects do not pollute throughput numbers.
    """

    def __init__(self, start_ns: int) -> None:
        self.start_ns = start_ns
        self.count = 0

    def record(self, time_ns: int, amount: int = 1) -> None:
        if time_ns >= self.start_ns:
            self.count += amount

    def per_second(self, end_ns: int) -> float:
        window = end_ns - self.start_ns
        if window <= 0:
            raise ValueError("measurement window has not started")
        return self.count * 1e9 / window
