"""Lightweight structured tracing for debugging and verifying simulations.

Tracing is off by default and costs one attribute check per call when
disabled.  When enabled, every ``trace()`` call appends a
``(time, component, event, fields)`` tuple which tests can assert on,
developers can print (:meth:`Tracer.dump`), the Perfetto exporter
(:func:`repro.obs.export.build_chrome_trace`) reads from
:attr:`Tracer.records`, and the protocol verification harness
(:mod:`repro.verify`) consumes as the ground-truth delivery trace.

When a ``limit`` is set, records past the limit are counted in
:attr:`Tracer.dropped` rather than silently discarded, and
:attr:`Tracer.overflowed` reports whether any record was lost — consumers
that need a *complete* trace (the conformance checker does) must check it
before trusting the records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

TraceRecord = Tuple[int, str, str, Dict[str, Any]]


class Tracer:
    """Collects structured trace records when enabled."""

    def __init__(self, enabled: bool = False, limit: Optional[int] = None) -> None:
        self.enabled = enabled
        self.limit = limit
        self.records: List[TraceRecord] = []
        self.dropped = 0

    def trace(self, time: int, component: str, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append((time, component, event, fields))

    @property
    def overflowed(self) -> bool:
        """True when the record limit was hit and records were lost."""
        return self.dropped > 0

    def filter(self, component: Optional[str] = None, event: Optional[str] = None):
        """Records matching the given component and/or event name."""
        out = []
        for record in self.records:
            if component is not None and record[1] != component:
                continue
            if event is not None and record[2] != event:
                continue
            out.append(record)
        return out

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def dump(self) -> str:  # pragma: no cover - debugging aid
        lines = []
        for time, component, event, fields in self.records:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"{time:>12} {component:<24} {event:<20} {detail}")
        if self.dropped:
            lines.append(f"... {self.dropped} records dropped (limit={self.limit})")
        return "\n".join(lines)


# A process-wide disabled tracer: components fall back to it when their
# simulator predates the ``Simulator.tracer`` attribute (test stubs), so
# the hot-path guard stays a single attribute check either way.
GLOBAL_TRACER = Tracer(enabled=False)
