"""Utilities for regenerating the paper's tables and figures.

Every benchmark produces a :class:`Series` per curve of the figure,
prints a paper-style table (visible in ``pytest benchmarks/`` output —
``benchmarks/pytest.ini`` disables capture), and persists the raw
numbers to ``results/<figure>.json`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.sim import Simulator
from repro.sim.stats import Histogram

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


class Series:
    """One labelled curve: x values -> y values (+ optional extras)."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.points: List[tuple] = []

    def add(self, x: Any, y: Any, **extra: Any) -> None:
        self.points.append((x, y, extra) if extra else (x, y))

    def xs(self) -> List[Any]:
        return [p[0] for p in self.points]

    def ys(self) -> List[Any]:
        return [p[1] for p in self.points]

    def as_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "points": self.points}


def print_table(
    title: str,
    x_header: str,
    series: Sequence[Series],
    fmt: str = "{:>12.3f}",
) -> None:
    """Render aligned columns: one row per x value, one column per series."""
    print(f"\n### {title}")
    xs = series[0].xs()
    header = f"{x_header:>14} " + " ".join(
        f"{s.label:>12}" for s in series
    )
    print(header)
    print("-" * len(header))
    for i, x in enumerate(xs):
        cells = []
        for s in series:
            try:
                y = s.ys()[i]
            except IndexError:
                cells.append(f"{'-':>12}")
                continue
            if y is None:
                cells.append(f"{'-':>12}")
            elif isinstance(y, float):
                cells.append(fmt.format(y))
            else:
                cells.append(f"{y:>12}")
        print(f"{str(x):>14} " + " ".join(cells))


def save_results(name: str, payload: Any) -> str:
    """Persist a benchmark's numbers to results/<name>.json."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return os.path.abspath(path)


class LatencyProbe:
    """Send tagged probes, record delivery latencies."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.sent: Dict[Any, int] = {}
        self.latencies: List[int] = []

    def mark_sent(self, tag: Any) -> None:
        self.sent[tag] = self.sim.now

    def mark_delivered(self, tag: Any) -> None:
        start = self.sent.pop(tag, None)
        if start is not None:
            self.latencies.append(self.sim.now - start)

    def mean_us(self) -> Optional[float]:
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies) / 1000

    def percentile_us(self, p: float) -> Optional[float]:
        """Nearest-rank percentile in microseconds.

        Delegates to :meth:`repro.sim.stats.Histogram.percentile` (ceil
        rank): the previous ``int(p/100*n) - 1`` truncation was biased a
        full rank low — p99 over 10 samples returned rank 8 (~p80),
        deflating every reported tail latency on small sample counts.
        """
        if not self.latencies:
            return None
        histogram = Histogram()
        histogram.extend(self.latencies)
        return histogram.percentile(p) / 1000
