"""Runtime sampler: periodic registry snapshots into TimeSeries.

The :class:`Sampler` is a :meth:`Simulator.every` periodic task; each
tick is an O(registered metrics) walk.
Every registered counter and gauge is appended to a
:class:`repro.sim.stats.TimeSeries` keyed by metric name; histograms
contribute their running observation count (``<name>.count``).

Callers can also attach *probes* — named zero-argument callables
evaluated each tick — for state that is cheaper to read on demand than
to keep as a gauge (summed link backlogs, receiver buffer bytes,
``sim.live_events``).  Probes MUST be pure reads of simulation state:
in particular never call :meth:`HostClock.now`, which advances the
clock's monotonic-slew state; use ``sim.now`` or ``_raw_now()``.

Sampler ticks consume scheduler event slots (and sequence numbers) but
never mutate component state, so enabling one leaves the delivery trace
of a run byte-identical — ``tests/obs/test_determinism.py`` proves it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.stats import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.sim.simulator import Simulator

__all__ = ["Sampler", "DEFAULT_SAMPLE_INTERVAL_NS"]

DEFAULT_SAMPLE_INTERVAL_NS = 25_000


class Sampler:
    """Snapshot a :class:`MetricsRegistry` into time series on a timer."""

    def __init__(
        self,
        sim: "Simulator",
        registry: Optional["MetricsRegistry"] = None,
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"sample interval must be positive: {interval_ns}")
        self.sim = sim
        self.registry = registry if registry is not None else sim.metrics
        self.interval_ns = interval_ns
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._task = None

    # ------------------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a pure read-only callable sampled each tick."""
        self._probes.append((name, fn))

    def start(self) -> None:
        if self._task is not None:
            return
        # First sample lands on the next interval boundary (PeriodicTask
        # alignment), so a t=0 all-zeros snapshot never pads the series.
        self._task = self.sim.every(self.interval_ns, self._tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None

    # ------------------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries()
        return series

    def sample_now(self) -> None:
        """Take one snapshot at the current simulated time."""
        self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        self.samples_taken += 1
        registry = self.registry
        for name, counter in registry.counters.items():
            self._series(name).record(now, counter.value)
        for name, gauge in registry.gauges.items():
            self._series(name).record(now, gauge.value)
        for name, hist in registry.histograms.items():
            self._series(name + ".count").record(now, hist.count)
        for name, fn in self._probes:
            self._series(name).record(now, float(fn()))

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, List[List[float]]]:
        """Deterministic (sorted-name) ``{name: [[t, v], ...]}`` dump."""
        return {
            name: [[t, v] for t, v in series.points]
            for name, series in sorted(self.series.items())
        }
