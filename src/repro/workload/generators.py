"""Arrival primitives for the open-loop engine.

Two building blocks, pure functions of the ``random.Random`` streams
handed to them (callers draw those from
:class:`repro.sim.randomness.RngStreams`, so every draw is attributable
to a named stream and byte-identical per seed).  Key and client
popularity come from :class:`repro.apps.workloads.YcsbZipfKeys`.

- :class:`RateCurve` — a piecewise-linear offered-load curve in
  ops/second over simulated nanoseconds, with an exact trapezoid
  integral (:meth:`expected_ops`).  Constructors cover the three shapes
  the scenarios need: constant, diurnal (raised-cosine day/night
  cycle), and flash crowd (ramp to a plateau).
- :func:`OpenLoopArrivals.times` — a non-homogeneous Poisson process by
  Lewis–Shedler thinning against the curve's peak rate, yielding sorted
  integer-ns arrival instants.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["OpenLoopArrivals", "RateCurve"]

_NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-linear offered load: ``points`` are ``(t_ns, ops_per_s)``
    knots with strictly increasing times.  Before the first knot the
    first rate holds; after the last knot the last rate holds."""

    points: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a rate curve needs at least one point")
        times = [t for t, _ in self.points]
        if times != sorted(set(times)):
            raise ValueError(f"knot times must be strictly increasing: {times}")
        if any(rate < 0 for _, rate in self.points):
            raise ValueError("rates must be non-negative")

    # -- constructors --------------------------------------------------
    @classmethod
    def constant(cls, rate_ops_per_s: float) -> "RateCurve":
        return cls(((0, float(rate_ops_per_s)),))

    @classmethod
    def diurnal(
        cls,
        base_ops_per_s: float,
        peak_ops_per_s: float,
        period_ns: int,
        duration_ns: int,
        segments_per_period: int = 8,
    ) -> "RateCurve":
        """Raised-cosine day/night cycle sampled into linear segments:
        the rate starts at ``base``, peaks at ``peak`` mid-period, and
        returns to ``base``, repeating until ``duration_ns``."""
        if period_ns <= 0 or duration_ns <= 0:
            raise ValueError("period and duration must be positive")
        step = max(1, period_ns // segments_per_period)
        swing = peak_ops_per_s - base_ops_per_s
        points = []
        t = 0
        while t <= duration_ns:
            phase = (t % period_ns) / period_ns
            rate = base_ops_per_s + swing * 0.5 * (1 - math.cos(2 * math.pi * phase))
            points.append((t, rate))
            t += step
        return cls(tuple(points))

    @classmethod
    def flash_crowd(
        cls,
        base_ops_per_s: float,
        peak_ops_per_s: float,
        start_ns: int,
        ramp_ns: int,
        hold_ns: int,
        decay_ns: int = 0,
    ) -> "RateCurve":
        """Quiet baseline, then a linear ramp to ``peak`` over
        ``ramp_ns``, a plateau of ``hold_ns``, and an optional linear
        decay back to ``base``."""
        if start_ns < 0 or ramp_ns <= 0 or hold_ns < 0:
            raise ValueError("flash crowd timings must be non-negative")
        points = [(0, float(base_ops_per_s))]
        if start_ns > 0:
            points.append((start_ns, float(base_ops_per_s)))
        ramp_top = start_ns + ramp_ns
        points.append((ramp_top, float(peak_ops_per_s)))
        if hold_ns > 0:
            points.append((ramp_top + hold_ns, float(peak_ops_per_s)))
        if decay_ns > 0:
            points.append((ramp_top + hold_ns + decay_ns, float(base_ops_per_s)))
        # Collapse duplicate knot times (start_ns == 0 etc.).
        dedup = [points[0]]
        for t, r in points[1:]:
            if t == dedup[-1][0]:
                dedup[-1] = (t, r)
            else:
                dedup.append((t, r))
        return cls(tuple(dedup))

    # -- evaluation ----------------------------------------------------
    def rate_at(self, t_ns: int) -> float:
        points = self.points
        if t_ns <= points[0][0]:
            return points[0][1]
        if t_ns >= points[-1][0]:
            return points[-1][1]
        # Find the segment [i-1, i] containing t and interpolate.
        lo, hi = 0, len(points) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if points[mid][0] <= t_ns:
                lo = mid
            else:
                hi = mid
        t0, r0 = points[lo]
        t1, r1 = points[hi]
        return r0 + (r1 - r0) * (t_ns - t0) / (t1 - t0)

    def peak(self) -> float:
        return max(rate for _, rate in self.points)

    def expected_ops(self, t0_ns: int, t1_ns: int) -> float:
        """Exact integral of the curve over ``[t0, t1]`` in operations.

        Piecewise-linear, so the trapezoid rule over knot-aligned
        sub-intervals is exact; the property suite checks additivity
        over arbitrary partitions.
        """
        if t1_ns <= t0_ns:
            return 0.0
        cuts = [t0_ns]
        for t, _ in self.points:
            if t0_ns < t < t1_ns:
                cuts.append(t)
        cuts.append(t1_ns)
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += (self.rate_at(a) + self.rate_at(b)) * 0.5 * (b - a)
        return total / _NS_PER_S


class OpenLoopArrivals:
    """Non-homogeneous Poisson arrivals against a :class:`RateCurve`."""

    @staticmethod
    def times(
        rng: random.Random,
        curve: RateCurve,
        start_ns: int,
        end_ns: int,
        rate_scale: float = 1.0,
    ) -> List[int]:
        """Sorted integer-ns arrival instants in ``[start_ns, end_ns)``.

        Lewis–Shedler thinning: candidate arrivals come from a
        homogeneous process at the curve's (scaled) peak rate; each is
        kept with probability ``rate(t) / peak``.  The sequence is a
        pure function of the ``rng`` stream, the curve, and the window.
        """
        lam_max = curve.peak() * rate_scale
        if lam_max <= 0:
            return []
        out: List[int] = []
        t = float(start_ns)
        while True:
            # Exponential gap at the peak rate, in ns; never zero so
            # candidate times strictly increase.
            gap_ns = -math.log(1.0 - rng.random()) / lam_max * _NS_PER_S
            t += max(1.0, gap_ns)
            if t >= end_ns:
                return out
            if rng.random() * lam_max <= curve.rate_at(int(t)) * rate_scale:
                out.append(int(t))
