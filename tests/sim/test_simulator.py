"""Unit tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 300


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(50, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(123, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 123


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_run_until_bound_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    processed = sim.run(until=100)
    assert fired == ["a"]
    assert processed == 1
    assert sim.now == 100
    sim.run(until=150)
    assert fired == ["a"]
    assert sim.now == 150  # clock advances to the bound even with no events
    sim.run()
    assert fired == ["a", "b"]


def test_run_for_relative_duration():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.run_for(5)
    assert sim.now == 5 and fired == []
    sim.run_for(5)
    assert sim.now == 10 and fired == [1]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    sim.schedule(20, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_call_soon_runs_after_current_event():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")
        order.append("still-first")

    sim.schedule(5, first)
    sim.schedule(5, order.append, "second")
    sim.run()
    assert order == ["first", "still-first", "second", "soon"]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, sim.stop)
    sim.schedule(3, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(1, loop)

    sim.schedule(0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, 1)
    sim.schedule(6, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert fired == [1, 2]
    assert sim.step() is False


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    assert sim.peek_time() == 5
    h.cancel()
    assert sim.peek_time() == 9


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_periodic_task_aligned_and_cancellable():
    sim = Simulator()
    fired = []
    sim.schedule(7, lambda: None)
    sim.run()  # now = 7
    task = sim.every(10, lambda: fired.append(sim.now))
    sim.run(until=45)
    assert fired == [10, 20, 30, 40]  # aligned to multiples of the interval
    task.cancel()
    sim.run(until=100)
    assert fired == [10, 20, 30, 40]


def test_periodic_task_phase():
    sim = Simulator()
    fired = []
    sim.every(10, lambda: fired.append(sim.now), phase=3)
    sim.run(until=35)
    assert fired == [3, 13, 23, 33]


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=42)
    sim_b = Simulator(seed=42)
    assert [sim_a.rng("x").random() for _ in range(5)] == [
        sim_b.rng("x").random() for _ in range(5)
    ]
    # Consuming one stream must not perturb another.
    sim_c = Simulator(seed=42)
    sim_c.rng("other").random()
    assert sim_c.rng("x").random() == Simulator(seed=42).rng("x").random()


def test_rng_streams_differ_by_seed_and_name():
    assert (
        Simulator(seed=1).rng("x").random()
        != Simulator(seed=2).rng("x").random()
    )
    sim = Simulator(seed=1)
    assert sim.rng("x").random() != sim.rng("y").random()


# ----------------------------------------------------------------------
# The order contract, over every entry point at once
# ----------------------------------------------------------------------
# Delays below one microsecond, inside and beyond half a millisecond, and
# the 1,024 ns multiples between them: the values a bucketed scheduler
# tier would treat differently.  Half the draws come from the short grid
# so that events from different entry points often share an instant,
# where only the issue order separates them.
_GRID = [0, 1, 1_023, 1_024, 2_048, 523_264, 524_288, 525_312, 1_048_576]
_DELAYS = st.one_of(st.sampled_from(_GRID), st.integers(0, 2_000_000))
_ENTRY_POINTS = (
    "schedule",
    "schedule_at",
    "post",
    "post_at",
    "schedule_timer",
    "schedule_timer_at",
)


_FIRINGS = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def _actions(children):
    return st.one_of(
        st.tuples(
            st.just("sched"), st.sampled_from(_ENTRY_POINTS), _DELAYS, children
        ),
        st.tuples(
            st.just("every"),
            _DELAYS.filter(bool),  # interval
            st.sampled_from([0, 1, 1_023]),  # phase, reduced mod interval
            # Tasks issued back to back, each cancelled from inside its
            # n-th firing.
            _FIRINGS,
            children,
        ),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
        # Inside a periodic tick: an event at exactly the tick's interval
        # and a task on the tick's own grid (both land on the instant the
        # ticking group re-arms to), cancelling a member of the group
        # that is firing, and stopping the run.
        st.tuples(st.just("echo"), st.sampled_from(_ENTRY_POINTS), children),
        st.tuples(st.just("twin"), _FIRINGS, children),
        st.tuples(st.just("sibling"), st.integers(0, 1 << 16)),
        st.just(("stop",)),
    )


# An action issued from inside a callback is a child of the action whose
# firing runs it; a periodic task issues its children on every firing.
_ACTIONS = st.recursive(
    _actions(st.just(())),
    lambda inner: _actions(st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)
_EXECUTORS = st.one_of(
    st.tuples(st.just("run"), _DELAYS, st.booleans()),
    st.sampled_from([("step",), ("peek",)]),
)
_PROGRAMS = st.lists(
    st.tuples(st.lists(_ACTIONS, max_size=6), _EXECUTORS), max_size=12
)


class _OrderModel:
    """Runs a program against a simulator and the obvious model of one.

    The model is the list of issued ``[time, issue index, state, is a
    periodic firing]`` entries: every scheduling call, whichever entry
    point took it and whether it came from the test body or from inside
    a callback, draws the next issue index.  What fires must be the
    entries nobody cancelled first, in ``(time, issue index)`` order.

    The queue counters count heap entries: one per plain event, and one
    per *slot* — the timer group that periodic tasks share.  Slots follow
    the simulator's rules in what the model can see: ``every`` calls
    back to back with equal interval and first firing share one; a slot
    that fires re-arms whole before its first member runs; a member
    whose callback issues at the re-arm instant moves, with the members
    after it, to a fresh slot; and ``stop`` puts the unfired rest in a
    slot at the current instant.
    """

    LIVE, FIRED, CANCELLED = "live", "fired", "cancelled"

    def __init__(self, compact_min: int) -> None:
        self.sim = Simulator()
        # Small programs never reach the default compaction threshold.
        self.sim.COMPACT_MIN_TOMBSTONES = compact_min
        self.entries: list[list] = []
        self.fired: list[tuple] = []
        # What a ``cancel`` action can pick: ("handle", handle, entry
        # index) or ("task", record).
        self.cancellable: list[tuple] = []
        # Periodic task records in creation order, which is also the
        # firing order inside every slot.
        self.records: list[dict] = []
        self.slots = 0
        # The slot the simulator pushed last (None: a plain event).
        self.last_push = None
        # The simulator's stop flag, as the firing slot sees it.
        self.stopped = False
        # While a slot fires: its members in firing order, its number,
        # and the record whose callback is running.
        self.order: list[dict] = []
        self.firing = None
        self.ticking = None
        # The heap entry each fired callback came from, for ``step``.
        self.sources: list[tuple] = []

    # -- model bookkeeping ---------------------------------------------
    def _issue(self, time: int, periodic: bool = False) -> int:
        self.entries.append([time, len(self.entries), self.LIVE, periodic])
        return len(self.entries) - 1

    def _mark_fired(self, index: int, source: tuple) -> None:
        entry = self.entries[index]
        assert entry[2] == self.LIVE, f"{entry} fired"
        assert entry[0] == self.sim.now
        entry[2] = self.FIRED
        self.fired.append((entry[0], entry[1]))
        self.sources.append(source)
        self.check_counts()

    def _unfired(self) -> list[tuple]:
        return sorted(
            (e[0], e[1]) for e in self.entries if e[2] == self.LIVE
        )

    def _push(self, time: int, interval: int, joinable: bool) -> dict:
        self.slots += 1
        slot = {
            "n": self.slots,
            "time": time,
            "interval": interval,
            "joinable": joinable,  # made by ``every``, not by a firing
        }
        self.last_push = slot
        return slot

    def _live(self, slot: dict) -> bool:
        return any(
            r["slot"] is slot and not r["cancelled"] for r in self.records
        )

    def _move(self, records: list, time: int, pushed: bool = True) -> None:
        """The uncancelled ``records`` move to a new slot at ``time``."""
        rest = [r for r in records if not r["cancelled"]]
        if rest:
            last = self.last_push
            slot = self._push(time, rest[0]["interval"], joinable=False)
            if not pushed:  # back into the popped slot: no new sequence
                self.last_push = last
            for r in rest:
                r["slot"] = slot

    def check_counts(self) -> None:
        sim = self.sim
        assert sim.pending_events == sim.live_events + sim.heap_tombstones
        plain = sum(e[2] == self.LIVE and not e[3] for e in self.entries)
        slots = {id(r["slot"]) for r in self.records if not r["cancelled"]}
        assert sim.live_events == plain + len(slots)

    def check_order(self) -> None:
        self.check_counts()
        assert self.fired == sorted(self.fired)
        unfired = self._unfired()
        if self.fired and unfired:
            assert self.fired[-1] < unfired[0]

    # -- actions ---------------------------------------------------------
    def act(self, action: tuple) -> None:
        kind, tick = action[0], self.ticking
        if kind == "sched":
            self._sched(*action[1:])
        elif kind == "every":
            self._every(*action[1:])
        elif kind == "echo":
            if tick is not None:
                self._sched(action[1], tick["interval"], action[2])
        elif kind == "twin":
            if tick is not None:
                self._every(tick["interval"], tick["phase"], *action[1:])
        elif kind == "stop":
            self.sim.stop()
            self.stopped = True
        elif kind == "sibling" and tick is not None:
            self._cancel(("task", self.order[action[1] % len(self.order)]))
        elif self.cancellable:
            self._cancel(self.cancellable[action[1] % len(self.cancellable)])

    def _sched(self, entry_point: str, delay: int, children: tuple) -> None:
        sim = self.sim
        index = self._issue(sim.now + delay)
        when = sim.now + delay if entry_point.endswith("_at") else delay
        handle = getattr(sim, entry_point)(when, self._fire, index, children)
        self.last_push = None
        if handle is not None:
            self.cancellable.append(("handle", handle, index))

    def _fire(self, index: int, children: tuple) -> None:
        self._mark_fired(index, ("event", index))
        for child in children:
            self.act(child)

    def _every(
        self, interval: int, phase: int, firings: tuple, children: tuple
    ) -> None:
        sim = self.sim
        phase %= interval
        first = sim.now - (sim.now - phase) % interval + interval
        for left in firings:
            slot = self.last_push
            if not (
                slot is not None
                and slot["joinable"]
                and slot["interval"] == interval
                and slot["time"] == first
                and self._live(slot)
            ):
                slot = self._push(first, interval, joinable=True)
            record = {
                "pending": self._issue(first, periodic=True),
                "left": left,
                "cancelled": False,
                "slot": slot,
                "interval": interval,
                "phase": phase,
            }
            self.records.append(record)
            record["task"] = sim.every(
                interval, self._tick, record, children, phase=phase
            )
            self.cancellable.append(("task", record))

    def _tick(self, record: dict, children: tuple) -> None:
        now = self.sim.now
        rearm = now + record["interval"]
        slot = record["slot"]
        if slot["time"] == now:
            # The slot fires: it re-arms, every member with it, first.
            self.stopped = False
            self.order = [r for r in self.records if r["slot"] is slot]
            self.firing = slot["n"]
            self._move(self.order, rearm)
        mark = len(self.entries)
        self._mark_fired(record["pending"], ("slot", self.firing))
        self.ticking = record
        for child in children:
            self.act(child)
        self.ticking = None
        record["left"] -= 1
        if not record["left"]:
            self._cancel(("task", record))
        i = self.order.index(record)
        if any(e[0] == rearm for e in self.entries[mark:]):
            # Issued ahead of this member's own re-arm: it and the rest
            # re-arm behind that entry.
            self._move(self.order[i:], rearm)
        if self.stopped:
            self._move(self.order[i + 1:], now, pushed=False)
        if not record["cancelled"]:
            record["pending"] = self._issue(rearm, periodic=True)

    def _cancel(self, target: tuple) -> None:
        if target[0] == "handle":
            _, handle, index = target
            handle.cancel()
        else:
            record = target[1]
            record["task"].cancel()
            record["cancelled"] = True
            index = record["pending"]
        if self.entries[index][2] == self.LIVE:
            self.entries[index][2] = self.CANCELLED

    # -- executors ---------------------------------------------------------
    def run(self, until, max_events) -> None:
        """``sim.run``, resumed after every ``stop`` a callback makes."""
        self.stopped = True
        while self.stopped:
            self.stopped = False
            self.sim.run(until=until, max_events=max_events)

    def execute(self, executor: tuple) -> None:
        sim = self.sim
        unfired = self._unfired()
        if executor[0] == "run":
            until = sim.now + executor[1]
            self.run(until, 10**6 if executor[2] else None)
            assert sim.now == until
            assert all(time > until for time, _ in self._unfired())
        elif executor[0] == "step":
            # One heap entry: a plain event, or one slot's members.
            self.sources = []
            assert sim.step() is bool(unfired)
            assert len(set(self.sources)) == bool(unfired)
        else:
            assert sim.peek_time() == (unfired[0][0] if unfired else None)


@settings(max_examples=300, deadline=None)
@given(
    program=_PROGRAMS,
    compact_min=st.sampled_from([2, Simulator.COMPACT_MIN_TOMBSTONES]),
    drain_with_max_events=st.booleans(),
)
def test_order_contract_across_entry_points(
    program, compact_min, drain_with_max_events
):
    """Whatever mix of entry points issued them, events fire in
    ``(time, issue order)``, cancelled ones never fire, and the queue
    counters agree with the model at every step — with periodic tasks
    grouped, and ticks that collide with their group's next instant,
    cancel a sibling, or stop the run."""
    model = _OrderModel(compact_min)
    for actions, executor in program:
        for action in actions:
            model.act(action)
            model.check_order()
        model.execute(executor)
        model.check_order()
    # Every periodic task cancels itself, so the queue drains.
    model.run(None, 10**6 if drain_with_max_events else None)
    model.check_order()
    assert model.sim.pending_events == 0
    assert model.fired == sorted(
        (e[0], e[1]) for e in model.entries if e[2] != model.CANCELLED
    )
