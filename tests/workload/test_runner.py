"""Scenario runner determinism + the workload metric namespace.

- merged scenario reports are byte-identical across runs and across
  ``--jobs`` values (the CI ``determinism`` job cmp's real files;
  this is the in-process equivalent);
- two runs in the *same* Python process are byte-identical — the
  regression test for the per-instance app id counters (a shared
  class-level ``itertools.count`` would make the second run differ);
- the schema validator accepts the registered ``workload.*`` metric
  names and rejects typos (closed namespace, like ``byz.*``).
"""

from repro.obs.export import (
    METRICS_SCHEMA,
    dumps_stable,
    validate_metrics_report,
)
from repro.workload.runner import run_scenario, run_shard
from repro.workload.scenarios import get_scenario

# A downsized hotspot keeps the double/parallel runs fast while still
# saturating the hot agent (rate and admission knobs are untouched).
FAST = get_scenario("hotspot").with_overrides(
    horizon_ns=200_000, drain_ns=800_000
)


def test_scenario_report_byte_identical_across_runs_and_jobs():
    first = run_scenario(FAST, seed=3)
    second = run_scenario(FAST, seed=3)
    parallel = run_scenario(FAST, seed=3, jobs=2)
    assert dumps_stable(first) == dumps_stable(second)
    assert dumps_stable(first) == dumps_stable(parallel)
    assert first["ok"]
    assert first["totals"]["arrivals"] > 0


def test_same_process_reruns_identical_for_all_apps():
    """Per-instance id counters: a second episode in the same process
    must not see state from the first (kvstore/hashtable/replication
    each allocate txn/op ids; every cluster numbers its own messages)."""
    for name in ("hotspot", "flash_crowd", "retry_storm"):
        scenario = get_scenario(name).with_overrides(
            horizon_ns=150_000, drain_ns=800_000
        )
        first = run_shard(scenario, 5, 0, check_ordering=False)
        second = run_shard(scenario, 5, 0, check_ordering=False)
        assert dumps_stable(first) == dumps_stable(second), name


def test_different_seeds_differ():
    a = run_scenario(FAST, seed=3)
    b = run_scenario(FAST, seed=4)
    assert dumps_stable(a) != dumps_stable(b)


def test_per_tenant_slo_sections_present():
    report = run_scenario(FAST, seed=3)
    for spec in FAST.tenants:
        entry = report["tenants"][spec.name]
        lag = entry["delivery_lag"]
        assert set(lag) == {"count", "p50", "p99", "p999", "max"}
        if entry["completed"]:
            assert lag["p99"] is not None
            assert lag["p999"] is not None
            assert lag["p999"] >= lag["p99"] >= lag["p50"]
    assert report["utilization"]["max_busy_fraction"] > 0.9


# ----------------------------------------------------------------------
# Metrics namespace validation
# ----------------------------------------------------------------------
def metrics_report(counters=None, histograms=None):
    return {
        "schema": METRICS_SCHEMA,
        "meta": {},
        "sim": {"now_ns": 0, "events_processed": 0},
        "metrics": {
            "counters": counters or {},
            "gauges": {},
            "histograms": histograms or {},
        },
        "series": {},
    }


def test_validator_accepts_registered_workload_names():
    report = metrics_report(
        counters={
            "workload.admitted": 1,
            "workload.rejected": 2,
            "workload.tenant.hot.arrivals": 3,
            "workload.tenant.a-b.retries": 0,
        },
        histograms={
            "workload.queue_wait_ns": {
                "bounds": [1], "counts": [0, 0], "count": 0,
            },
            "workload.tenant.hot.delivery_lag_ns": {
                "bounds": [1], "counts": [1, 0], "count": 1,
            },
        },
    )
    assert validate_metrics_report(report) == []


def test_validator_rejects_workload_typos():
    report = metrics_report(
        counters={
            "workload.admited": 1,  # typo: flat name not registered
            "workload.tenant.hot.bogus": 2,  # typo: unknown leaf
        },
        histograms={
            "workload.tenant.hot.arrivals": {  # counter leaf as histogram
                "bounds": [1], "counts": [0, 0], "count": 0,
            },
        },
    )
    problems = validate_metrics_report(report)
    assert len(problems) == 3
    assert any("workload.admited" in p for p in problems)
    assert any("workload.tenant.hot.bogus" in p for p in problems)


def test_real_run_emits_only_registered_workload_metrics():
    """End to end: the engine's own registry snapshot passes the closed
    namespace check (catches drift between engine and validator)."""
    from repro.obs.export import build_metrics_report

    _report, run = run_shard(FAST, 3, 0, keep_run=True)
    sim = run["sim"]
    report = build_metrics_report(
        sim.metrics, sim_now_ns=sim.now, events_processed=sim.events_processed
    )
    assert validate_metrics_report(report) == []
    counters = report["metrics"]["counters"]
    assert counters["workload.arrivals"] > 0
    assert counters["workload.tenant.hot.arrivals"] > 0
