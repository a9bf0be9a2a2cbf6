"""Benchmark harness shared by the per-figure benchmarks."""

from repro.bench.harness import (
    LatencyProbe,
    Series,
    closed_loop,
    print_table,
    save_results,
)

__all__ = [
    "LatencyProbe",
    "Series",
    "closed_loop",
    "print_table",
    "save_results",
]
