"""Hybrid engine: identity, accuracy envelope, promotion, determinism.

The acceptance contract (ISSUE 9 / docs/HYPERSCALE.md):

- **All-hot identity**: with every pod hot the hybrid engine runs the
  very same packet-level code path as a plain full-topology run — the
  island observables are byte-identical.
- **Accuracy envelope**: with cold pods enabled, watched-path delivery
  observables stay within 2% of the full packet-level reference, and
  the §2.1 reference oracle passes on the hybrid delivery trace.
- **Worker invariance**: the full report is byte-identical across
  ``workers`` values (cmp'd again, on bytes, by the hyperscale-smoke
  CI job).
- **Automatic promotion**: fault schedules and sustained backpressure
  pull cold pods up to packet fidelity without user action.
"""

from dataclasses import replace

import pytest

from repro.hybrid import SCENARIOS, run_hyperscale, run_packet_reference
from repro.obs.export import KNOWN_HYBRID_METRICS, dumps_stable

# Shortened horizons: the contract is structural, not statistical.
ALLHOT = replace(SCENARIOS["k8_allhot"], windows=40)
COLD = replace(SCENARIOS["k8_cold"], windows=40)


@pytest.fixture(scope="module")
def cold_report():
    return run_hyperscale(COLD, workers=1)


@pytest.fixture(scope="module")
def packet_reference():
    return run_packet_reference(COLD)


class TestAllHotIdentity:
    def test_island_bytes_equal_packet_run(self):
        hybrid = run_hyperscale(ALLHOT, workers=1)
        reference = run_packet_reference(ALLHOT)
        assert dumps_stable(hybrid["island"]) == dumps_stable(reference)
        assert hybrid["fidelity"]["hybrid.pods_cold"] == 0
        assert hybrid["cold"] == {}


class TestColdAccuracy:
    def test_oracle_passes_on_hybrid_trace(self, cold_report):
        assert cold_report["island"]["oracle_divergences"] == 0
        assert cold_report["island"]["deliveries"] > 0

    def test_watched_observables_within_envelope(
        self, cold_report, packet_reference
    ):
        """Stated tolerance: mean and p99 watched-path delivery latency
        within 2% of the full packet-level run (docs/HYPERSCALE.md)."""
        for key in ("mean_delivery_ns", "p99_delivery_ns"):
            hybrid = cold_report["island"][key]
            packet = packet_reference[key]
            assert abs(hybrid - packet) <= 0.02 * packet, (
                key, hybrid, packet
            )
        assert (
            cold_report["island"]["deliveries"]
            == packet_reference["deliveries"]
        )

    def test_cold_fabric_really_ran_cold(self, cold_report):
        fidelity = cold_report["fidelity"]
        assert fidelity["hybrid.pods_cold"] == 6
        assert fidelity["hybrid.cross_shard_events"] > 0
        assert cold_report["cold"]["degraded_windows"] > 0

    def test_island_is_smaller_than_packet_reference(
        self, cold_report, packet_reference
    ):
        # A size, not an event count: timer groups make scheduler events
        # scale with beacon instants rather than with hosts.
        assert cold_report["island"]["hosts"] < packet_reference["hosts"]
        assert (
            cold_report["island"]["switches"] < packet_reference["switches"]
        )


class TestWorkerInvariance:
    def test_full_report_bytes_identical(self, cold_report):
        again = run_hyperscale(COLD, workers=2)
        assert dumps_stable(again) == dumps_stable(cold_report)

    def test_repeat_run_bytes_identical(self, cold_report):
        again = run_hyperscale(COLD, workers=1)
        assert dumps_stable(again) == dumps_stable(cold_report)


class TestPromotion:
    def test_fault_target_promotes_its_pod(self):
        scenario = replace(COLD, fault_targets=("tor5.0.up",))
        report = run_hyperscale(scenario, workers=1)
        fidelity = report["fidelity"]
        assert fidelity["hybrid.promotions_fault"] == 1
        assert fidelity["hybrid.pods_hot"] == 3
        assert report["island"]["pods"] == 3

    def test_sustained_backpressure_promotes(self):
        # Demand far beyond the core capacity of every cold pod: the
        # sustained-utilization rule must pull them hot and re-run.
        scenario = replace(
            COLD, name="k8_overload", flows_per_window=400,
            local_fraction_pct=10,
        )
        report = run_hyperscale(scenario, workers=1)
        fidelity = report["fidelity"]
        assert fidelity["hybrid.promotions_backpressure"] > 0
        assert fidelity["hybrid.passes"] >= 2

    def test_default_demand_does_not_promote(self, cold_report):
        assert cold_report["fidelity"]["hybrid.promotions_backpressure"] == 0
        assert cold_report["fidelity"]["hybrid.passes"] == 1


class TestReportShape:
    def test_schema_and_closed_namespace(self, cold_report):
        assert cold_report["schema"] == "repro.hybrid/1"
        for name in cold_report["fidelity"]:
            assert name in KNOWN_HYBRID_METRICS, name

    def test_workers_never_in_report(self, cold_report):
        assert "workers" not in dumps_stable(cold_report)

    def test_hot_pods_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_hyperscale(replace(COLD, hot_pods=99))

    def test_p99_is_nearest_rank(self):
        """Regression: the island p99 once read index ``99·(n−1)//100``
        of the sorted latencies, a rank below nearest rank whenever
        0.99·n has a fractional part below .99 (n = 50: rank 49, not 50).
        """
        from repro.hybrid.engine import delivery_latency_summary

        latencies = [1_000 * v for v in range(50, 0, -1)]  # distinct, unsorted
        assert delivery_latency_summary(latencies) == {
            "mean_delivery_ns": 25_500,
            "p99_delivery_ns": 50_000,   # ceil(0.99 · 50) = rank 50
            "max_delivery_ns": 50_000,
        }
        assert set(delivery_latency_summary([]).values()) == {0}
