"""Tests for the runtime sampler."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import Sampler
from repro.sim import Simulator


def test_interval_must_be_positive():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        Sampler(sim, interval_ns=0)


def test_defaults_to_sim_registry():
    sim = Simulator(seed=1)
    sampler = Sampler(sim)
    assert sampler.registry is sim.metrics


def test_samples_counters_on_interval_boundaries():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("msgs")
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    sim.schedule_at(500, c.add, 3)
    sim.schedule_at(2500, c.add, 2)
    sim.run(until=4000)
    sampler.stop()
    points = sampler.series["msgs"].points
    assert [t for t, _v in points] == [1000, 2000, 3000, 4000]
    assert [v for _t, v in points] == [3, 3, 5, 5]
    assert sampler.samples_taken == 4


def test_histogram_contributes_count_series():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("lat", bounds=(10,))
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    sim.schedule_at(500, h.observe, 5)
    sim.schedule_at(1500, h.observe, 7)
    sim.run(until=2000)
    points = sampler.series["lat.count"].points
    assert points == [(1000, 1), (2000, 2)]


def test_probe_sampled_each_tick():
    sim = Simulator(seed=1)
    sampler = Sampler(sim, registry=MetricsRegistry(), interval_ns=1000)
    sampler.add_probe("probe.time", lambda: sim.now * 2)
    sampler.start()
    sim.run(until=3000)
    assert sampler.series["probe.time"].points == [
        (1000, 2000.0), (2000, 4000.0), (3000, 6000.0)
    ]


def test_stop_halts_sampling():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    reg.counter("x")
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    assert sampler.running
    sim.run(until=2000)
    sampler.stop()
    assert not sampler.running
    sim.run(until=10_000)
    assert sampler.samples_taken == 2


def test_start_is_idempotent():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    reg.counter("x")
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    sampler.start()  # no double-registration
    sim.run(until=3000)
    assert sampler.samples_taken == 3


def test_sample_now_takes_immediate_snapshot():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    reg.counter("x").add(9)
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.sample_now()
    assert sampler.series["x"].points == [(0, 9)]
    assert sampler.samples_taken == 1


def test_metrics_registered_after_start_are_picked_up():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    sim.run(until=1000)
    sim.schedule_at(1500, lambda: reg.counter("late").add(4))
    sim.run(until=2000)
    # "late" only exists from the second tick onwards.
    assert sampler.series["late"].points == [(2000, 4)]


def test_as_dict_sorted_and_json_shaped():
    sim = Simulator(seed=1)
    reg = MetricsRegistry(enabled=True)
    reg.counter("z").add(1)
    reg.counter("a").add(2)
    sampler = Sampler(sim, registry=reg, interval_ns=1000)
    sampler.start()
    sim.run(until=1000)
    d = sampler.as_dict()
    assert list(d) == ["a", "z"]
    assert d["a"] == [[1000, 2]]
