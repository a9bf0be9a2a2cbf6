"""Tests for the baseline shootout runner.

The shootout's claims rest on two mechanical guarantees: every
protocol cell in a scenario sees the *identical* fault schedule, and
the report is a pure function of (seed, knobs) — byte-identical across
repeat runs and across ``--jobs``.
"""

import json

import pytest

from repro.baselines.shootout import (
    PROTOCOLS,
    SCENARIO_NAMES,
    ShootoutRunner,
    k4_params,
    _CellStats,
)
from repro.obs.export import write_json

# A small grid that still crosses a host-side and an in-network
# protocol with a clean and a faulty scenario.
SMALL = dict(protocols=("sequencer", "switchpaxos"),
             scenarios=("clean", "crash"), n_members=4,
             horizon_ns=400_000, drain_ns=1_200_000)


def test_percentile_is_ceil_rank():
    stats = _CellStats(sim=None)
    assert stats.latency_summary()["p95_ns"] == 0  # no deliveries
    stats.latencies = list(range(10_000, 0, -1_000))  # 10 samples, unsorted
    summary = stats.latency_summary()
    assert summary["p50_ns"] == 5_000
    assert summary["p95_ns"] == 10_000  # ceil(9.5) = rank 10
    assert summary["p99_ns"] == 10_000
    assert stats.latencies[0] == 10_000  # the summary sorts a copy


def test_k4_topology_shape():
    params = k4_params()
    assert params.n_pods * params.tors_per_pod * params.hosts_per_tor == 16


def test_unknown_protocol_or_scenario_rejected():
    with pytest.raises(ValueError):
        ShootoutRunner(seed=1, protocols=("carrier-pigeon",))
    with pytest.raises(ValueError):
        ShootoutRunner(seed=1, scenarios=("apocalypse",))


def test_schedules_identical_across_protocol_cells():
    runner = ShootoutRunner(seed=3, **SMALL)
    cells = [runner.run_cell("crash", p) for p in SMALL["protocols"]]
    assert cells[0]["faults"]  # the crash scenario injects faults
    assert cells[1]["faults"] == cells[0]["faults"]


def test_report_is_deterministic_and_clean(tmp_path):
    reports = []
    for run in range(2):
        report = ShootoutRunner(seed=5, **SMALL).run()
        path = tmp_path / f"r{run}.json"
        write_json(report, str(path))
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["ok"] is True
    assert report["total_contract_violations"] == 0
    assert [e["scenario"] for e in report["scenarios"]] == ["clean", "crash"]
    clean = report["scenarios"][0]["cells"]
    assert set(clean) == set(SMALL["protocols"])
    for cell in clean.values():
        assert cell["delivery_permille"] == 1000
        assert cell["violations"] == []
    assert "crossover" in report
    assert report["crossover"]["clean"]["lowest_p50_latency"] in clean


def test_jobs_do_not_change_the_report(tmp_path):
    base = ShootoutRunner(seed=7, **SMALL).run()
    forked = ShootoutRunner(seed=7, jobs=2, **SMALL).run()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(base, str(a))
    write_json(forked, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_report():
    a = ShootoutRunner(seed=5, **SMALL).run()
    b = ShootoutRunner(seed=6, **SMALL).run()
    assert a != b


def test_metrics_knob_embeds_closed_namespace_counters():
    from repro.obs.export import KNOWN_SHOOTOUT_METRICS, validate_metrics_report

    runner = ShootoutRunner(
        seed=2, protocols=("sequencer",), scenarios=("clean",),
        n_members=4, horizon_ns=200_000, drain_ns=600_000, metrics=True,
    )
    cell = runner.run_cell("clean", "sequencer")
    counters = cell["metrics"]["counters"]
    for name in KNOWN_SHOOTOUT_METRICS:
        assert name in counters
    assert counters["shootout.contract_violations"] == 0
    assert counters["shootout.broadcasts_sent"] > 0


def test_full_grid_constants():
    # The committed results/shootout_k4.json covers the full grid.
    assert PROTOCOLS == (
        "lamport", "sequencer", "token", "epto", "switchpaxos", "onepipe",
    )
    assert SCENARIO_NAMES == ("clean", "crash", "gray", "degraded")


def test_onepipe_cell_runs_the_invariant_monitor():
    runner = ShootoutRunner(
        seed=4, protocols=("onepipe",), scenarios=("clean",),
        n_members=4, horizon_ns=200_000, drain_ns=800_000,
    )
    cell = runner.run_cell("clean", "onepipe")
    assert cell["contract"] == "onepipe_s21"
    assert cell["violations"] == []
    assert cell["delivery_permille"] == 1000
    assert cell["counters"]["scatterings_sent"] > 0
