"""Saturation-grade conformance: the §2.1 oracle at >90% utilization.

The verify fuzzer exercises sparse, hand-sized episodes; these tests
re-run the overload scenarios in raw mode (plain scatterings, so nothing
but the ordering layer stands between load and trace) and check, through
each shard's invariant monitor, the *reference* semantics under
sustained admission-control pressure: O1 per-sender ordering,
exactly-once for the reliable service, and — with chaos faults composed
in — O5/O6 failure atomicity/notification.  Each scenario variant also runs on the
packet-beacon reference (``tests/reference.py``), which must be
report-byte-identical.
"""

import pytest

from repro.obs.export import dumps_stable
from repro.workload.runner import run_shard
from repro.workload.scenarios import get_scenario
from tests.reference import PacketBeacons, on_packet_beacons

SCENARIOS = ("hotspot", "flash_crowd", "retry_storm")


def run_raw(name, *, faults=0):
    # Raw scatterings complete in one RTT — far cheaper than the app
    # round trips the scenarios are tuned for — and raw mode spreads
    # clients over all eight hosts, so squeeze the admission window and
    # scale the offered load to keep client hosts >90% busy.
    from dataclasses import replace

    from repro.onepipe.admission import AdmissionConfig
    from repro.workload.generators import RateCurve

    base = get_scenario(name)
    tenants = tuple(
        replace(
            spec,
            curve=RateCurve(
                tuple((t, rate * 4.0) for t, rate in spec.curve.points)
            ),
        )
        for spec in base.tenants
    )
    scenario = base.with_app("raw").with_overrides(
        tenants=tenants,
        admission=AdmissionConfig(
            max_inflight=1, queue_limit=4, op_timeout_ns=2_000_000
        ),
    )
    return scenario, run_shard(scenario, 1, 0, faults=faults, keep_run=True)


@pytest.mark.parametrize("name", SCENARIOS)
def test_oracle_clean_at_saturation(name):
    scenario, (report, run) = run_raw(name)
    # The shard's monitor handed its records to the reference oracle;
    # the report's ordering block is that verdict.
    assert report["ordering"]["checked"]
    assert report["ordering"]["deliveries"] > 0  # traffic actually flowed
    assert report["ordering"]["violations"] == 0
    # This is a *saturation* test: at least one client host must have
    # been busy >90% of the traffic window, or the scenario degenerated.
    busiest = max(
        agent["busy_fraction"] for agent in report["utilization"].values()
    )
    assert busiest > 0.9


@pytest.mark.parametrize("name", SCENARIOS)
def test_oracle_clean_at_saturation_packet_beacons(name):
    """The virtual beacon fabric is exact: on event-level beacons the
    oracle stays clean and the shard report is byte-identical."""
    _, (fabric_report, _run) = run_raw(name)
    _, (packet_report, run) = on_packet_beacons(run_raw, name)
    assert isinstance(run["cluster"].fabric, PacketBeacons)
    assert dumps_stable(packet_report) == dumps_stable(fabric_report)
    assert packet_report["ordering"]["violations"] == 0


def test_oracle_clean_under_saturation_with_faults():
    """O5/O6 at saturation: chaos faults composed with the hotspot
    overload — whatever the failure regions swallow must be charged to
    an announced failure, never silently lost, and delivered prefixes
    stay atomic per scattering."""
    scenario, (report, run) = run_raw("hotspot", faults=3)
    assert report["ordering"]["deliveries"] > 0
    assert report["ordering"]["violations"] == 0


def test_shard_reports_deterministic_with_keep_run():
    """``keep_run`` (the run retained) must not perturb the report."""
    scenario = get_scenario("hotspot").with_app("raw")
    report_a, _run = run_shard(scenario, 1, 0, keep_run=True)
    report_b = run_shard(scenario, 1, 0)
    assert dumps_stable(report_a) == dumps_stable(report_b)
