"""Discrete-event simulation kernel.

This package is the substrate everything else in :mod:`repro` runs on.  It
provides:

- :class:`~repro.sim.simulator.Simulator` — a deterministic, heap-based
  event loop with nanosecond-resolution virtual time.
- :class:`~repro.sim.events.EventHandle` — cancellable scheduled callbacks.
- :class:`~repro.sim.process.Process` / :class:`~repro.sim.process.Future` —
  generator-based cooperative processes for protocol logic that reads
  naturally as sequential code (used heavily by 2PC and the applications).
- :class:`~repro.sim.randomness.RngStreams` — named, independently seeded
  random streams so that adding a new random consumer never perturbs the
  draws of existing ones.
- :mod:`~repro.sim.stats` — histograms, percentile summaries and time
  series used by the runners and the benchmark harness.

All simulated time is expressed in integer nanoseconds.
"""

from repro.sim.events import EventHandle
from repro.sim.process import Future, Process, all_of, sim_sleep
from repro.sim.randomness import RngStreams
from repro.sim.simulator import PeriodicTask, SimulationError, Simulator
from repro.sim.stats import Histogram, TimeSeries
from repro.sim.trace import Tracer

__all__ = [
    "EventHandle",
    "Future",
    "Histogram",
    "PeriodicTask",
    "Process",
    "RngStreams",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "Tracer",
    "all_of",
    "sim_sleep",
]
