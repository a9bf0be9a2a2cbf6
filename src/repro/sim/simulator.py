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

Timer groups: periodic tasks built back to back hold consecutive
sequence numbers at every instant they fire, so one :class:`_TimerGroup`
heap entry fires them all in order and re-arms once, first.  While they
run, the group's next instant sits in the collision watch
(``_fabric_times``); a member that schedules there moves, with the rest,
to a fresh group behind that event, where per-task re-arms would land.
``step``, ``events_processed``, ``pending_events`` and ``live_events``
count heap entries: a group is one.

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
        # The last ``every`` call's timer group (PeriodicTask.__init__).
        self._last_group: Optional["_TimerGroup"] = None

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
        """Process one heap entry.  Returns False if the queue is empty."""
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
        """Number of heap entries still queued (including cancelled
        tombstones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued heap entries that will actually fire."""
        return len(self._heap) - self._tombstones

    @property
    def heap_tombstones(self) -> int:
        """Cancelled events still occupying heap slots (lazy deletion)."""
        return self._tombstones

    @property
    def events_processed(self) -> int:
        """Heap entries processed over the lifetime of the simulator."""
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
        experiments.  A task without jitter joins the previous call's
        timer group (module docstring) when it would fire right after it.
        """
        return PeriodicTask(self, interval, callback, args, phase, jitter_rng, jitter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} pending={len(self._heap)}>"


class _TimerGroup:
    """Periodic tasks that fire back to back: one heap entry, one re-arm.

    ``tasks`` holds the uncancelled members in firing order; the handle
    is cancelled when the last one leaves.
    """

    __slots__ = ("sim", "interval", "tasks", "handle")

    def __init__(self, sim, interval: int, tasks: list, time: int, seq=None):
        self.sim = sim
        self.interval = interval
        self.tasks = tasks
        for task in tasks:
            task._group = self
        if seq is None:
            self.handle = sim.schedule_at(time, self._fire)
        else:  # back into a slot just popped
            self.handle = EventHandle(time, seq, self._fire, (), sim)
            heapq.heappush(sim._heap, (time, seq, self.handle))

    def _move(self, tasks: list, time: int, seq=None) -> "_TimerGroup":
        """Move the uncancelled ``tasks`` (a suffix of this group's) to a
        new group at ``time``, or into the popped slot ``(time, seq)``;
        returns it, or this group if none is left to move."""
        tasks = [task for task in tasks if not task._cancelled]
        if not tasks:
            return self
        del self.tasks[-len(tasks):]
        if not self.tasks:
            self.handle.cancel()
        return _TimerGroup(self.sim, self.interval, tasks, time, seq)

    def _fire(self) -> None:
        sim = self.sim
        sim._last_group = None  # a group that has fired takes no joins
        sim._stopped = False  # only a stop from a member counts below
        now = sim.now
        seq = self.handle.seq
        time = now + self.interval
        self.handle = sim.schedule_at(time, self._fire)
        times = sim._fabric_times
        times[time] = times.get(time, 0) + 1
        epoch = sim._fabric_epoch
        group = self
        tasks = self.tasks[:]  # PeriodicTask.cancel edits the list
        for i, task in enumerate(tasks):
            if task._cancelled:
                continue
            task._callback(*task._args)
            if sim._fabric_epoch != epoch:
                # The callback scheduled at ``time``, ahead of this task's
                # own re-arm: it and the rest move behind that event.
                group = group._move(tasks[i:], time)
                epoch = sim._fabric_epoch
            if sim._stopped:
                # The unfired rest go back to the popped slot: next up.
                group._move(tasks[i + 1:], now, seq)
                break
        if times[time] > 1:
            times[time] -= 1
        else:
            del times[time]


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
        self._jitter = int(jitter) if jitter_rng is not None else 0
        self._cancelled = False
        # Align the first firing to the next multiple of interval + phase so
        # that tasks with the same interval fire at synchronized instants
        # (the paper relies on synchronized beacon times, Sec. 4.2).
        first = ((sim.now - phase) // self._interval + 1) * self._interval + phase
        if first < sim.now:
            first += self._interval
        self._next_time = first
        # A jittered task keeps its own handle (its offsets are drawn
        # after each callback); any other is a member of a timer group.
        self._handle = self._group = None
        if self._jitter:
            first += jitter_rng.randrange(self._jitter)
            self._handle = sim.schedule_at(first, self._fire)
            return
        group = sim._last_group
        if (
            group is not None
            and group.tasks
            and group.handle.seq == sim._seq - 1
            and group.interval == self._interval
            and group.handle.time == first
        ):
            group.tasks.append(self)
            self._group = group
        else:
            sim._last_group = _TimerGroup(sim, self._interval, [self], first)

    def _fire(self) -> None:
        self._callback(*self._args)
        if self._cancelled:  # callback may cancel us
            return
        sim = self._sim
        self._next_time += self._interval
        time = self._next_time + self._jitter_rng.randrange(self._jitter)
        self._handle = sim.schedule_at(max(time, sim.now), self._fire)

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
        else:
            self._group.tasks.remove(self)
            if not self._group.tasks:
                self._group.handle.cancel()


def exhaust(iterator: Iterator[Any]) -> None:
    """Drain an iterator for its side effects (explicit, per style guide)."""
    for _ in iterator:
        pass
