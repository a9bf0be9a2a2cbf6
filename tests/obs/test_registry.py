"""Tests for the metrics registry: counters, gauges, bucket histograms."""

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BOUNDS_NS,
    BucketHistogram,
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        c = CounterMetric("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = GaugeMetric("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestBucketHistogram:
    def test_bucket_placement(self):
        h = BucketHistogram("lat", bounds=(10, 20, 30))
        for v in (5, 10, 11, 25, 31, 1000):
            h.observe(v)
        # <=10 | <=20 | <=30 | overflow
        assert h.counts == [2, 1, 1, 2]
        assert h.count == 6
        assert h.total == 5 + 10 + 11 + 25 + 31 + 1000
        assert h.min_value == 5
        assert h.max_value == 1000

    def test_negative_values_land_in_first_bucket(self):
        h = BucketHistogram("lat", bounds=(10,))
        h.observe(-5)
        assert h.counts == [1, 0]
        assert h.min_value == -5

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            BucketHistogram("bad", bounds=(10, 10, 20))
        with pytest.raises(ValueError):
            BucketHistogram("bad", bounds=(20, 10))
        with pytest.raises(ValueError):
            BucketHistogram("bad", bounds=())

    def test_quantile_empty_is_none(self):
        h = BucketHistogram("lat")
        assert h.quantile(0.5) is None

    def test_quantile_out_of_range_rejected(self):
        h = BucketHistogram("lat")
        h.observe(1)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_quantile_is_conservative_bucket_bound(self):
        h = BucketHistogram("lat", bounds=(10, 20, 30))
        for v in (1, 2, 15, 29):
            h.observe(v)
        assert h.quantile(0.5) == 10.0   # 2 of 4 samples in bucket <=10
        assert h.quantile(0.75) == 20.0
        assert h.quantile(1.0) == 29.0   # clamped to the observed max
        # The rank comes from the decimal q: binary 0.55 * 100 is
        # 55.00000000000001, whose ceil is a full rank high.
        unit = BucketHistogram("unit", bounds=tuple(range(1, 101)))
        for v in range(1, 101):
            unit.observe(v)
        assert unit.quantile(0.55) == 55.0
        assert unit.quantile(0.07) == 7.0

    def test_quantile_clamped_to_observed_max(self):
        # All samples in one bucket: the quantile must not exceed any
        # actual observation even though the bucket bound is larger.
        h = BucketHistogram("lat", bounds=(1000,))
        h.observe(356)
        h.observe(12)
        assert h.quantile(0.5) == 356.0 or h.quantile(0.5) <= 356.0
        assert h.quantile(0.99) <= 356.0

    def test_quantile_overflow_bucket_reports_max(self):
        h = BucketHistogram("lat", bounds=(10,))
        h.observe(500)
        h.observe(900)
        assert h.quantile(0.99) == 900.0

    def test_as_dict_shape(self):
        h = BucketHistogram("lat", bounds=(10, 20))
        h.observe(5)
        d = h.as_dict()
        assert d["bounds"] == [10, 20]
        assert len(d["counts"]) == 3
        assert d["count"] == 1
        assert d["p50"] == 5.0
        assert d["min"] == 5
        assert d["max"] == 5


class TestMetricsRegistry:
    def test_disabled_by_default(self):
        assert MetricsRegistry().enabled is False

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_histogram_rebound_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        reg.histogram("h", bounds=(1, 2))  # same bounds: fine
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1, 2, 3))

    def test_shared_counter_aggregates_components(self):
        reg = MetricsRegistry()
        a = reg.counter("link.tx_packets")
        b = reg.counter("link.tx_packets")
        a.add()
        b.add(2)
        assert reg.counter("link.tx_packets").value == 3

    def test_snapshot_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("z").add(1)
        reg.counter("a").add(2)
        reg.gauge("depth").set(4.0)
        reg.histogram("lat", bounds=(10,)).observe(3)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["gauges"] == {"depth": 4.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_clear_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").add()
        reg.clear()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_default_bounds_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BOUNDS_NS) == sorted(
            set(DEFAULT_LATENCY_BOUNDS_NS)
        )


class TestSimulatorIntegration:
    def test_simulator_carries_disabled_registry(self):
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        assert isinstance(sim.metrics, MetricsRegistry)
        assert sim.metrics.enabled is False

    def test_cluster_counts_nothing_when_disabled(self):
        from repro.onepipe import OnePipeCluster
        from repro.sim import Simulator

        sim = Simulator(seed=3)
        cluster = OnePipeCluster(sim, n_processes=4)
        cluster.endpoint(0).unreliable_send([(1, "hello")])
        sim.run(until=500_000)
        snap = sim.metrics.snapshot()
        assert all(v == 0 for v in snap["counters"].values())
        assert all(h["count"] == 0 for h in snap["histograms"].values())

    def test_cluster_counts_when_enabled_in_place(self):
        from repro.onepipe import OnePipeCluster
        from repro.sim import Simulator

        sim = Simulator(seed=3)
        sim.metrics.enabled = True  # before the cluster is built
        cluster = OnePipeCluster(sim, n_processes=4)
        cluster.endpoint(0).unreliable_send([(1, "hello")])
        cluster.endpoint(1).reliable_send([(2, "world")])
        sim.run(until=1_000_000)
        counters = sim.metrics.counters_as_dict()
        assert counters["receiver.delivered"] == 2
        assert counters["sender.messages_sent"] == 2
        assert counters["sender.scatterings_sent"] == 2
        assert counters["hostagent.beacons_sent"] > 0
        assert counters["link.tx_packets"] > 0
        assert counters["switch.rx_packets"] > 0
        lag = sim.metrics.histograms["receiver.delivery_lag_ns"]
        assert lag.count == 2
        assert lag.min_value >= 0
