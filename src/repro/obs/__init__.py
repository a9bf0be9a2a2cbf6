"""Observability: metrics registry, runtime sampler, and trace export.

This package is the "see inside a run" layer the rest of the repo
instruments against:

- :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges
  and fixed-bucket histograms.  Allocation-free on the hot path and one
  attribute check when disabled, mirroring the
  :class:`~repro.sim.trace.Tracer` pattern: every
  :class:`~repro.sim.simulator.Simulator` carries a disabled registry at
  ``sim.metrics``; components cache it at construction time, so enable
  it *in place* (``sim.metrics.enabled = True``) before building a
  cluster.
- :class:`~repro.obs.sampler.Sampler` — periodically snapshots the
  registry (and optional callable probes) into
  :class:`~repro.sim.stats.TimeSeries` on a
  :meth:`~repro.sim.simulator.Simulator.every` periodic task.
- :mod:`~repro.obs.export` — deterministic JSON metrics reports and
  Chrome trace-event (``chrome://tracing`` / Perfetto) files derived
  from tracer records and sampler series, plus their schema validators.
- :mod:`~repro.obs.runner` — the engine behind ``python -m repro.cli
  observe`` (imported lazily: it pulls in the full cluster stack).

Observability must never perturb the simulation: instrumentation points
only increment counters/observe histograms under the ``enabled`` guard,
and sampler probes read pure state (never :meth:`HostClock.now`, which
slews).  ``tests/obs/test_determinism.py`` enforces this A/B.
"""

from repro.obs.registry import (
    GLOBAL_METRICS,
    BucketHistogram,
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
)
from repro.obs.sampler import Sampler
from repro.obs.export import (
    METRICS_SCHEMA,
    build_chrome_trace,
    build_metrics_report,
    metrics_summary,
    validate_chrome_trace,
    validate_metrics_report,
    write_json,
)

__all__ = [
    "BucketHistogram",
    "CounterMetric",
    "GaugeMetric",
    "GLOBAL_METRICS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "Sampler",
    "build_chrome_trace",
    "build_metrics_report",
    "metrics_summary",
    "validate_chrome_trace",
    "validate_metrics_report",
    "write_json",
]
