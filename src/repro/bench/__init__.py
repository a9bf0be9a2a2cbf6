"""Benchmark harness shared by the per-figure benchmarks."""

from repro.bench.harness import (
    LatencyProbe,
    Series,
    print_table,
    save_results,
)

__all__ = [
    "LatencyProbe",
    "Series",
    "print_table",
    "save_results",
]
