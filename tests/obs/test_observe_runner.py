"""Tests for the ``observe`` harness and its CLI subcommand."""

import json

import pytest

from repro.obs.export import (
    dumps_stable,
    validate_chrome_trace,
    validate_metrics_report,
)
from repro.obs.runner import run_observe

# One shared small run per module: the runner is deterministic, so every
# test can assert against the same artifacts.
_KNOBS = dict(seed=1, hosts=8, horizon_ns=300_000, drain_ns=400_000)


@pytest.fixture(scope="module")
def observed():
    return run_observe(**_KNOBS)


def test_unsupported_host_count_rejected():
    with pytest.raises(ValueError):
        run_observe(seed=1, hosts=12)


def test_report_and_trace_validate(observed):
    report, trace, summary = observed
    assert validate_metrics_report(report) == []
    assert validate_chrome_trace(trace) == []
    assert summary["messages_delivered"] > 0
    assert not summary["trace_overflowed"]


def test_report_has_traffic_and_series(observed):
    report, _trace, summary = observed
    counters = report["metrics"]["counters"]
    assert counters["receiver.delivered"] == summary["messages_delivered"]
    assert counters["sender.scatterings_sent"] == summary["scatterings_sent"]
    assert counters["hostagent.beacons_sent"] > 0
    assert counters["link.tx_packets"] > 0
    # Probes ride along with every registered counter.
    for probe in ("probe.link_backlog_bytes", "probe.receiver_buffer_bytes",
                  "probe.sender_unacked", "probe.live_events"):
        assert probe in report["series"], probe
    assert report["meta"]["seed"] == 1
    assert report["sim"]["now_ns"] >= _KNOBS["horizon_ns"]


def test_trace_carries_deliveries_and_counters(observed):
    _report, trace, summary = observed
    events = trace["traceEvents"]
    deliveries = [e for e in events if e.get("name") == "deliver"]
    assert len(deliveries) == summary["messages_delivered"]
    assert any(e["ph"] == "C" for e in events)
    json.dumps(trace)  # fully serializable


def test_same_knobs_are_byte_identical(observed):
    report, trace, _summary = observed
    report2, trace2, _ = run_observe(**_KNOBS)
    assert dumps_stable(report) == dumps_stable(report2)
    assert dumps_stable(trace) == dumps_stable(trace2)


def test_different_seed_differs(observed):
    report, _trace, _summary = observed
    report2, _, _ = run_observe(**{**_KNOBS, "seed": 2})
    assert dumps_stable(report) != dumps_stable(report2)


def test_faults_engage_failure_instrumentation():
    report, _trace, _summary = run_observe(
        seed=3, hosts=8, horizon_ns=300_000, drain_ns=2_500_000, n_faults=3
    )
    assert validate_metrics_report(report) == []
    counters = report["metrics"]["counters"]
    # A seeded fault schedule must leave *some* mark: drops, dead links,
    # retransmissions, or receiver-side discards.
    disturbance = (
        counters["link.dropped_down"]
        + counters["link.dropped_corruption"]
        + counters["link.dropped_burst"]
        + counters["engine.links_declared_dead"]
        + counters["sender.retransmissions"]
        + counters["hostagent.receiver_drops"]
    )
    assert disturbance > 0


def test_cli_observe_writes_validated_artifacts(tmp_path, capsys):
    from repro.cli import main

    out_metrics = str(tmp_path / "metrics.json")
    out_trace = str(tmp_path / "trace.json")
    rc = main([
        "observe", "--hosts", "8", "--seed", "1",
        "--horizon-us", "300", "--drain-us", "400",
        "--out-metrics", out_metrics, "--out-trace", out_trace,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics ->" in out
    report = json.loads(open(out_metrics).read())
    trace = json.loads(open(out_trace).read())
    assert validate_metrics_report(report) == []
    assert validate_chrome_trace(trace) == []
    # CLI artifacts are the stable-dump bytes of the same run.
    assert open(out_metrics).read() == dumps_stable(report)
