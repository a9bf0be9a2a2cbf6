"""The deterministic discrete-event simulator.

Time is an integer number of nanoseconds starting at 0.  The scheduler is
one binary heap of ``(time, seq, payload)`` tuples popped in ``(time,
seq)`` order.  Storing plain tuples (rather than the :class:`EventHandle`
objects themselves) keeps every heap comparison inside the C
tuple-compare fast path — ``seq`` is unique, so a sift never reaches the
payload element.  The payload is an :class:`EventHandle` for cancellable
events, or a bare ``(callback, args)`` tuple for fire-and-forget events
posted via :meth:`Simulator.post` — the data path (link deliveries,
packet forwarding) never cancels, so it skips the handle allocation
entirely.

Determinism guarantees:

- Events at the same instant fire in the order they were scheduled.
- All randomness flows through :class:`repro.sim.randomness.RngStreams`
  seeded from the simulator seed, so a (seed, workload) pair fully
  determines a run.

The simulator deliberately knows nothing about networks or clocks; those are
layered on top (:mod:`repro.net`, :mod:`repro.clock`).
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Iterator, Optional

from repro.obs.registry import MetricsRegistry
from repro.sim.events import EventHandle
from repro.sim.randomness import RngStreams
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator with ns-resolution time.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :meth:`rng`).

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(100, fired.append, "a")
    >>> _ = sim.schedule(50, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    100
    """

    # Compaction: once at least this many cancelled tombstones sit in the
    # heap AND they make up at least half of it, rebuild without them.
    # Mirrors asyncio's timer-handle compaction; bounds queue growth under
    # schedule/cancel churn (retransmission timers ACKed early, periodic
    # tasks torn down mid-campaign) at amortized O(1) per cancellation.
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self, seed: int = 0) -> None:
        self.now: int = 0
        self.seed = seed
        # Heap of (time, seq, EventHandle) tuples; see module docstring.
        self._heap: list[tuple] = []
        self._seq = 0
        self._stopped = False
        self._rngs = RngStreams(seed)
        self._events_processed = 0
        # Cancelled-but-still-queued handles.
        self._tombstones = 0
        # Structured tracing, disabled by default.  Components cache this
        # object at construction time, so enable it *in place*
        # (``sim.tracer.enabled = True``) before building a cluster rather
        # than replacing the attribute afterwards.
        self.tracer = Tracer(enabled=False)
        # Metrics registry, same contract as the tracer: disabled by
        # default, cached by components, enable *in place*
        # (``sim.metrics.enabled = True``) before building a cluster.
        self.metrics = MetricsRegistry(enabled=False)
        # Merge-bucket collision watch (repro.onepipe.analytic).  Beacon
        # fabrics register every instant with an open merged bucket here
        # (refcounted, in case several fabrics share one simulator); any
        # schedule targeting a registered instant bumps the epoch, which
        # tells the fabrics a foreign event now holds a sequence number
        # after their buckets' — appends past that point would fire out
        # of event-level order, so they close their buckets.  The table
        # is empty unless a fabric is active, making the check one
        # failing membership test on the scheduling paths.
        self._fabric_times: dict = {}
        self._fabric_epoch = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        The returned handle cancels it; events nobody will cancel are
        cheaper through :meth:`post`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Hot path: inlined push (no schedule_at call); delay >= 0 already
        # guarantees the event is not in the past.
        time = self.now + int(delay)
        if time in self._fabric_times:
            self._fabric_epoch += 1
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_at(
        self, time: int, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        time = int(time)
        if time in self._fabric_times:
            self._fabric_epoch += 1
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def post(self, delay: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation.

        The hot data path (link deliveries, switch forwarding, NIC egress)
        never cancels its events, so it skips the :class:`EventHandle`
        allocation and pushes a bare ``(callback, args)`` payload.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + int(delay)
        if time in self._fabric_times:
            self._fabric_epoch += 1
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, (callback, args)))

    def post_at(self, time: int, callback: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`post`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        time = int(time)
        if time in self._fabric_times:
            self._fabric_epoch += 1
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, (callback, args)))

    # Old names, kept only because perf/probes.py still calls them.
    schedule_timer = schedule
    schedule_timer_at = schedule_at

    def _requeue_timer(self, handle, time: int) -> None:
        """Re-arm a just-fired timer handle at ``time``.

        :class:`PeriodicTask` reschedules through here: identical
        ``(time, seq)`` placement to :meth:`schedule_at`, but the handle
        object is recycled instead of reallocated (a periodic task has
        at most one pending firing, and the run loop has already
        detached the popped handle).
        """
        if time in self._fabric_times:
            self._fabric_epoch += 1
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        handle._sim = self
        heapq.heappush(self._heap, (time, seq, handle))

    def _handle_cancelled(self) -> None:
        """A queued handle was cancelled (called by the handle itself)."""
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        Mutates the heap list in place so a run loop holding a local
        reference keeps seeing the compacted queue.
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if type(entry[2]) is tuple or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._tombstones = 0

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time (after the
        currently-running event and everything already queued for now)."""
        return self.schedule_at(self.now, callback, *args)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Absolute time bound (inclusive): events scheduled strictly after
            ``until`` are left in the queue and ``now`` is advanced to
            ``until`` when the queue drains past it.
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SimulationError` when exceeded.

        Returns
        -------
        int
            The number of events processed by this call.
        """
        # The loop allocates heavily (heap entries, handles, merge
        # buckets) and drops the references just as fast, with no cycles
        # among them — generational GC passes only add pauses that
        # re-scan the whole topology graph.  Pause collection for the
        # duration; cyclic garbage waits until the loop returns.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(until, max_events)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, until: Optional[int], max_events: Optional[int]) -> int:
        self._stopped = False
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        # Specialized loops keep the hot path tight: the common case
        # (no max_events) skips the per-event safety comparison, and the
        # unbounded-time variant skips the ``until`` peek as well.  Live
        # events are popped exactly once (no peek-then-pop).
        if max_events is None:
            if until is None:
                while heap and not self._stopped:
                    time, _seq, handle = pop(heap)
                    if type(handle) is tuple:
                        self.now = time
                        handle[0](*handle[1])
                        processed += 1
                        continue
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle._sim = None
                    self.now = time
                    handle.callback(*handle.args)
                    processed += 1
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    time = entry[0]
                    if time > until:
                        break
                    pop(heap)
                    handle = entry[2]
                    if type(handle) is tuple:
                        self.now = time
                        handle[0](*handle[1])
                        processed += 1
                        continue
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle._sim = None
                    self.now = time
                    handle.callback(*handle.args)
                    processed += 1
        else:
            bound = until if until is not None else float("inf")
            while heap and not self._stopped:
                entry = heap[0]
                time = entry[0]
                if time > bound:
                    break
                pop(heap)
                handle = entry[2]
                if type(handle) is tuple:
                    self.now = time
                    handle[0](*handle[1])
                else:
                    if handle.cancelled:
                        self._tombstones -= 1
                        continue
                    handle._sim = None
                    self.now = time
                    handle.callback(*handle.args)
                processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self.now}"
                    )
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        self._events_processed += processed
        return processed

    def run_for(self, duration: int, **kwargs: Any) -> int:
        """Run for ``duration`` ns of simulated time from now."""
        return self.run(until=self.now + int(duration), **kwargs)

    def step(self) -> bool:
        """Process a single event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, handle = heapq.heappop(heap)
            if type(handle) is tuple:
                self.now = time
                handle[0](*handle[1])
                self._events_processed += 1
                return True
            if handle.cancelled:
                self._tombstones -= 1
                continue
            handle._sim = None
            self.now = time
            handle.callback(*handle.args)
            self._events_processed += 1
            return True
        return False

    def stop(self) -> None:
        """Stop the currently-running :meth:`run` after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection / utilities
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled
        tombstones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire."""
        return len(self._heap) - self._tombstones

    @property
    def heap_tombstones(self) -> int:
        """Cancelled events still occupying heap slots (lazy deletion)."""
        return self._tombstones

    @property
    def events_processed(self) -> int:
        """Total events processed over the lifetime of the simulator."""
        return self._events_processed

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            top = heap[0][2]
            if type(top) is tuple or not top.cancelled:
                return heap[0][0]
            heapq.heappop(heap)
            self._tombstones -= 1
        return None

    def rng(self, name: str):
        """Named deterministic random stream (see :class:`RngStreams`)."""
        return self._rngs.stream(name)

    def every(
        self,
        interval: int,
        callback: Callable[..., Any],
        *args: Any,
        phase: int = 0,
        jitter_rng=None,
        jitter: int = 0,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` ns, starting at ``phase``.

        ``jitter`` (with ``jitter_rng``) adds a uniform [0, jitter) offset to
        each firing, used e.g. to de-synchronize beacon senders in ablation
        experiments.
        """
        return PeriodicTask(self, interval, callback, args, phase, jitter_rng, jitter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} pending={len(self._heap)}>"


class PeriodicTask:
    """A cancellable periodic callback (used for beacons, syncs, pollers)."""

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        callback: Callable[..., Any],
        args: tuple,
        phase: int,
        jitter_rng,
        jitter: int,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive: {interval}")
        self._sim = sim
        self._interval = int(interval)
        self._callback = callback
        self._args = args
        self._jitter_rng = jitter_rng
        self._jitter = int(jitter)
        self._cancelled = False
        # Align the first firing to the next multiple of interval + phase so
        # that tasks with the same interval fire at synchronized instants
        # (the paper relies on synchronized beacon times, Sec. 4.2).
        first = ((sim.now - phase) // self._interval + 1) * self._interval + phase
        if first < sim.now:
            first += self._interval
        self._next_time = first
        self._handle = sim.schedule_at(self._apply_jitter(first), self._fire)

    def _apply_jitter(self, time: int) -> int:
        if self._jitter and self._jitter_rng is not None:
            return time + self._jitter_rng.randrange(self._jitter)
        return time

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback(*self._args)
        if self._cancelled:  # callback may cancel us
            return
        sim = self._sim
        time = self._next_time + self._interval
        self._next_time = time
        if self._jitter and self._jitter_rng is not None:
            time += self._jitter_rng.randrange(self._jitter)
        if time < sim.now:
            time = sim.now
        sim._requeue_timer(self._handle, time)

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


def exhaust(iterator: Iterator[Any]) -> None:
    """Drain an iterator for its side effects (explicit, per style guide)."""
    for _ in iterator:
        pass
