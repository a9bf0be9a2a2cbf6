"""Measurement primitives used by the runners and the benchmark harness.

These are intentionally simple, allocation-light collectors:

- :func:`nearest_rank` — the one nearest-rank percentile rule.
- :class:`Histogram` — keeps raw samples; mean/std/percentiles on demand.
- :class:`TimeSeries` — (time, value) pairs, the per-metric series of
  :class:`repro.obs.sampler.Sampler`.

Components count through :mod:`repro.obs.registry`, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


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
