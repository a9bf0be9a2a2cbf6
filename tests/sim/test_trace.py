"""Tests for the structured tracer."""

from repro.sim.trace import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.trace(10, "link", "send", size=100)
    assert tracer.records == []


def test_enabled_tracer_records():
    tracer = Tracer(enabled=True)
    tracer.trace(10, "link", "send", size=100)
    tracer.trace(20, "switch", "forward")
    assert tracer.records == [
        (10, "link", "send", {"size": 100}),
        (20, "switch", "forward", {}),
    ]


def test_filter_by_component_and_event():
    tracer = Tracer(enabled=True)
    tracer.trace(1, "a", "x")
    tracer.trace(2, "a", "y")
    tracer.trace(3, "b", "x")
    assert len(tracer.filter(component="a")) == 2
    assert len(tracer.filter(event="x")) == 2
    assert len(tracer.filter(component="a", event="x")) == 1


def test_limit_caps_records():
    tracer = Tracer(enabled=True, limit=2)
    for i in range(5):
        tracer.trace(i, "c", "e")
    assert len(tracer.records) == 2


def test_limit_overflow_is_counted_not_silent():
    tracer = Tracer(enabled=True, limit=2)
    assert tracer.overflowed is False
    for i in range(5):
        tracer.trace(i, "c", "e")
    assert tracer.dropped == 3
    assert tracer.overflowed is True
    assert "3 records dropped" in tracer.dump()


def test_no_limit_never_overflows():
    tracer = Tracer(enabled=True)
    for i in range(100):
        tracer.trace(i, "c", "e")
    assert tracer.dropped == 0
    assert tracer.overflowed is False


def test_clear():
    tracer = Tracer(enabled=True)
    tracer.trace(1, "a", "x")
    tracer.clear()
    assert tracer.records == []


def test_clear_resets_dropped():
    tracer = Tracer(enabled=True, limit=1)
    tracer.trace(1, "a", "x")
    tracer.trace(2, "a", "x")
    assert tracer.overflowed
    tracer.clear()
    assert tracer.dropped == 0
    assert not tracer.overflowed
    tracer.trace(3, "a", "x")
    assert tracer.records == [(3, "a", "x", {})]


def test_simulator_carries_disabled_tracer():
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    assert isinstance(sim.tracer, Tracer)
    assert sim.tracer.enabled is False


def test_cluster_records_deliveries_when_tracer_enabled():
    from repro.onepipe import OnePipeCluster
    from repro.sim import Simulator

    sim = Simulator(seed=3)
    sim.tracer.enabled = True  # in place, before the cluster is built
    cluster = OnePipeCluster(sim, n_processes=4)
    cluster.endpoint(0).unreliable_send([(1, "hello")])
    sim.run(until=1_000_000)
    deliveries = sim.tracer.filter(component="recv.1", event="deliver")
    assert len(deliveries) == 1
    _time, _component, _event, fields = deliveries[0]
    assert fields["src"] == 0
    assert fields["payload"] == "hello"
    assert fields["reliable"] is False


def test_cluster_traces_nothing_when_disabled():
    from repro.onepipe import OnePipeCluster
    from repro.sim import Simulator

    sim = Simulator(seed=3)
    cluster = OnePipeCluster(sim, n_processes=4)
    cluster.endpoint(0).unreliable_send([(1, "hello")])
    sim.run(until=1_000_000)
    assert sim.tracer.records == []


def test_import_package_api():
    import repro

    assert repro.__version__
    assert hasattr(repro, "OnePipeCluster")
    assert hasattr(repro, "Simulator")
