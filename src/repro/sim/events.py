"""Scheduled-event bookkeeping for the simulation kernel.

An :class:`EventHandle` is returned by every ``Simulator.schedule`` call.  It
is intentionally tiny: the event heap stores the handles directly, and
cancellation is implemented by flagging the handle so the main loop skips it
when popped (lazy deletion), which keeps cancellation O(1).

Lazy deletion alone lets cancelled handles accumulate in the queue when they
are cancelled long before their firing time (retransmission timers that were
ACKed, periodic tasks torn down mid-campaign).  To bound that growth, a
handle that is still queued reports its cancellation back to the owning
simulator (the ``_sim`` back-reference doubles as the "still queued" flag —
the run loop clears it when the handle is popped), and the simulator
compacts the queue once tombstones dominate (see
:meth:`repro.sim.simulator.Simulator._compact`).
"""

from __future__ import annotations

from typing import Any, Callable


class EventHandle:
    """A single scheduled callback inside the simulator.

    Instances are ordered by ``(time, seq)`` so that events scheduled for the
    same instant fire in scheduling order, which makes runs fully
    deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim=None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Owning simulator while the handle sits in the heap; cleared by the
        # run loop on pop so post-fire cancels do not skew tombstone counts.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Safe to call multiple times, and safe to call on an event that has
        already fired (it becomes a no-op).
        """
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap do not keep
        # large object graphs (packets, buffers) alive.
        self.callback = _cancelled_callback
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._handle_cancelled()

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _cancelled_callback(*_args: Any) -> None:
    """Placeholder callback installed by :meth:`EventHandle.cancel`."""
