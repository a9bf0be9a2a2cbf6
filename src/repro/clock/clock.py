"""Per-host monotonic clocks.

A host clock reads ``true_time + offset + drift_accumulated`` where
``true_time`` is the simulator's global time (the "wall clock" no real
system can observe).  Synchronization (see :mod:`repro.clock.sync`)
periodically adjusts the offset; adjustments that would move the clock
backwards are slewed so the reading stays monotonic — the paper requires
host timestamps to be non-decreasing.
"""

from __future__ import annotations

from repro.sim import Simulator


class HostClock:
    """A monotonic, synchronized host clock.

    Parameters
    ----------
    sim:
        The simulator supplying true time.
    offset_ns:
        Initial offset from true time (positive = clock runs ahead).
    drift_ppm:
        Frequency error in parts-per-million; +10 ppm gains 10 µs/s.
    """

    def __init__(
        self, sim: Simulator, offset_ns: int = 0, drift_ppm: float = 0.0
    ) -> None:
        self.sim = sim
        self._offset_ns = float(offset_ns)
        self._drift_ppm = float(drift_ppm)
        self._drift_epoch = sim.now  # true time when drift last re-based
        self._last_reading = self._raw_now()

    def _raw_now(self) -> int:
        elapsed = self.sim.now - self._drift_epoch
        drifted = elapsed * self._drift_ppm * 1e-6
        return int(self.sim.now + self._offset_ns + drifted)

    def now(self) -> int:
        """Current host time in ns; guaranteed non-decreasing."""
        reading = self._raw_now()
        if reading < self._last_reading:
            # Slew: hold the clock at its previous reading until raw time
            # catches up, preserving monotonicity across sync adjustments.
            reading = self._last_reading
        self._last_reading = reading
        return reading

    def peek(self) -> int:
        """What :meth:`now` would return, WITHOUT advancing the slew state.

        Observability code (metric probes, instrumentation) must use this
        instead of :meth:`now`: reading via :meth:`now` moves
        ``_last_reading`` forward, which changes how a later negative sync
        adjustment is slewed — i.e. observing the clock would perturb the
        simulation.
        """
        reading = self._raw_now()
        if reading < self._last_reading:
            reading = self._last_reading
        return reading

    @property
    def offset_ns(self) -> float:
        """Current total offset from true time (including drift so far)."""
        return self._raw_now() - self.sim.now

    def adjust(self, correction_ns: float) -> None:
        """Apply a sync correction (new_offset = old_offset + correction).

        Re-bases the drift accumulator so future drift accrues from now.
        """
        current = self._raw_now()
        self._offset_ns = current - self.sim.now + correction_ns
        self._drift_epoch = self.sim.now

    def set_drift_ppm(self, drift_ppm: float) -> None:
        """Change the frequency error, re-basing accumulated drift."""
        self._offset_ns = self._raw_now() - self.sim.now
        self._drift_epoch = self.sim.now
        self._drift_ppm = float(drift_ppm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostClock offset={self.offset_ns:.1f}ns "
            f"drift={self._drift_ppm}ppm>"
        )
