"""Tests for periodic tasks: alignment, jitter, cancellation edge cases."""

import pytest

from repro.sim import SimulationError, Simulator


def test_zero_interval_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0, lambda: None)


def test_jitter_spreads_firing_times():
    sim = Simulator(seed=3)
    fired = []
    sim.every(
        1000,
        lambda: fired.append(sim.now),
        jitter_rng=sim.rng("jitter"),
        jitter=500,
    )
    sim.run(until=20_000)
    offsets = {t % 1000 for t in fired}
    assert len(offsets) > 1  # not all aligned to the interval
    assert all(0 <= t % 1000 < 500 for t in fired)


def test_callback_can_cancel_itself():
    sim = Simulator()
    fired = []
    holder = {}

    def tick():
        fired.append(sim.now)
        if len(fired) == 3:
            holder["task"].cancel()

    holder["task"] = sim.every(10, tick)
    sim.run(until=1_000)
    assert fired == [10, 20, 30]


def test_two_tasks_same_interval_fire_same_instants():
    """The synchronized-beacons property: aligned periodic tasks across
    components fire at identical instants."""
    sim = Simulator()
    a_times, b_times = [], []
    sim.schedule(7, lambda: None)
    sim.run(until=7)
    sim.every(100, lambda: a_times.append(sim.now))
    sim.schedule(13, lambda: None)
    sim.run(until=20)
    sim.every(100, lambda: b_times.append(sim.now))
    sim.run(until=1_000)
    assert a_times[1:] and b_times
    # Despite being created at different times, both fire on the grid.
    assert set(b_times) <= set(a_times)
