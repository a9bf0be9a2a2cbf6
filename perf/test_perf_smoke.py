"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Validates ``BENCHMARK.json`` against the benchmark contract's limits and
against the code that produces the metrics, then runs one workload at
one-tenth size and requires its digest check to pass.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_within_the_limits():
    spec = load(ROOT / "BENCHMARK.json")
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(PERF))
    try:
        from layers import LAYERS
        from probes import PROBES
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERF))
    spec = load(ROOT / "BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls_in"} <= per_layer
    assert set(PROBES) <= per_layer


def test_every_per_layer_metric_says_what_it_should_move():
    spec = load(ROOT / "BENCHMARK.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    covered = set()
    for row in load(PERF / "moves.json"):
        assert row["moves"] and set(row["moves"]) <= end_to_end
        assert row["on"] and set(row["on"]) <= workloads
        assert set(row["no_change_on"]) <= workloads
        covered.update(row["metrics"])
    assert covered == {m["name"] for m in spec["per_layer"]}


def test_quick_run_passes_its_digest_check(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--only",
         "bcast_data", "--reps", "2", "--skip-traced", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    result = load(out)["workloads"]["bcast_data"]
    assert result["checks_failed"] == 0
    assert result["delivered"] == result["attempted"] > 0
