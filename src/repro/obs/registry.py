"""Metrics registry: named counters, gauges, fixed-bucket histograms.

Design constraints (mirroring :class:`repro.sim.trace.Tracer`):

- **One attribute check when disabled.**  Components cache the registry
  object once at construction time and pre-resolve the metric objects
  they update, so the hot path is ``if self._metrics.enabled:
  self._m_foo.add()`` — a single attribute load and branch when
  observability is off.
- **Allocation-free on the hot path.**  ``CounterMetric.add`` and
  ``GaugeMetric.set`` are integer/float stores; ``BucketHistogram``
  keeps a pre-sized bucket-count list and bisects into fixed bounds.
  Nothing allocates per observation.
- **Enable in place.**  ``Simulator`` owns a disabled registry at
  ``sim.metrics``; flip ``sim.metrics.enabled = True`` *before*
  building a cluster — components keep references to the object that
  existed at construction time (replacing it later silently drops
  updates, exactly like ``sim.tracer``).

Metric objects are registered by name and shared: a second
``counter("x")`` call returns the same :class:`CounterMetric`, so
independent components can contribute to one aggregate series.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "BucketHistogram",
    "CounterMetric",
    "GaugeMetric",
    "GLOBAL_METRICS",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_NS",
]


# Exponential-ish latency buckets in integer nanoseconds: 1us .. 5ms,
# which brackets everything from a single link hop to a cross-fabric
# barrier advance under chaos.  Values above the last bound land in the
# overflow bucket; negative/zero values land in the first.
DEFAULT_LATENCY_BOUNDS_NS: Tuple[int, ...] = (
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
)


class CounterMetric:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class GaugeMetric:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class BucketHistogram:
    """Fixed-bound histogram with pre-sized integer bucket counts.

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one extra overflow bucket catches values
    above the last bound.  Unlike :class:`repro.sim.stats.Histogram`
    (which stores raw samples for exact percentiles), this never grows:
    observation cost is one bisect plus three integer updates.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min_value", "max_value")

    def __init__(self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        ordered = tuple(bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing: {bounds!r}")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left keeps the bounds *inclusive* upper edges: a value
        # equal to bounds[i] lands in bucket i (the Prometheus "le"
        # convention), so quantile() can report bounds[i] for it.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def quantile(self, q: float) -> Optional[float]:
        """Upper bucket bound at quantile ``q`` in [0, 1] (conservative).

        Returns ``max_value`` when the quantile falls in the overflow
        bucket, and ``None`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return None
        # repro.sim imports this module, so the import cannot be at the top.
        from repro.sim.stats import nearest_rank

        # Nearest-rank over bucket counts: the smallest bound whose
        # cumulative count covers the rank, taken from the decimal
        # value of q (binary 0.55 * 100 is 55.00000000000001).
        rank = nearest_rank(Fraction(str(q)) * 100, self.count)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(self.bounds):
                    # Clamp to the observed max: a single-bucket
                    # population should not report a quantile beyond any
                    # actual observation.
                    return float(min(self.bounds[i], self.max_value))
                return float(self.max_value)  # overflow bucket
        return float(self.max_value)  # pragma: no cover - unreachable

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Registry of named metrics, disabled by default.

    ``enabled`` only gates *callers* (instrumentation points check it
    before updating); the metric objects themselves always accept
    updates so tests can exercise them directly.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Dict[str, CounterMetric] = {}
        self.gauges: Dict[str, GaugeMetric] = {}
        self.histograms: Dict[str, BucketHistogram] = {}

    # -- registration --------------------------------------------------
    def counter(self, name: str) -> CounterMetric:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = GaugeMetric(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BOUNDS_NS
    ) -> BucketHistogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = BucketHistogram(name, bounds)
        elif metric.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds: "
                f"{metric.bounds!r} vs {tuple(bounds)!r}"
            )
        return metric

    # -- export --------------------------------------------------------
    def counters_as_dict(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self.counters.items())}

    def snapshot(self) -> Dict[str, object]:
        """Deterministic (sorted-name) dump of every registered metric."""
        return {
            "counters": self.counters_as_dict(),
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.as_dict() for name, h in sorted(self.histograms.items())
            },
        }

    def clear(self) -> None:
        """Forget every registered metric (callers' cached refs go stale)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


# Fallback for components built without a metrics-carrying simulator
# (unit tests poking at a bare object), mirroring GLOBAL_TRACER.
GLOBAL_METRICS = MetricsRegistry(enabled=False)
