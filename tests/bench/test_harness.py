"""Tests for the benchmark harness utilities."""

import json
import os

import pytest

import repro.bench
from repro.bench import LatencyProbe, Series, print_table, save_results
from repro.sim import Simulator


def test_package_is_exactly_the_figure_harness():
    """Performance numbers come from perf/ (BENCHMARK.json); this
    package only serves the per-figure benchmarks."""
    assert sorted(repro.bench.__all__) == [
        "LatencyProbe", "Series", "print_table", "save_results",
    ]


class TestSeries:
    def test_add_and_views(self):
        s = Series("x")
        s.add(1, 10.0)
        s.add(2, 20.0, note="extra")
        assert s.xs() == [1, 2]
        assert s.ys() == [10.0, 20.0]
        d = s.as_dict()
        assert d["label"] == "x"
        assert d["points"][1][2] == {"note": "extra"}


class TestPrintTable:
    def test_renders_rows_and_missing_cells(self, capsys):
        a = Series("alpha")
        a.add(1, 1.5)
        a.add(2, 2.5)
        b = Series("beta")
        b.add(1, None)
        print_table("demo", "x", [a, b])
        out = capsys.readouterr().out
        assert "### demo" in out
        assert "alpha" in out and "beta" in out
        assert "-" in out  # missing cell rendered as dash

    def test_integer_values(self, capsys):
        s = Series("n")
        s.add("a", 7)
        print_table("t", "x", [s])
        assert "7" in capsys.readouterr().out


class TestSaveResults:
    def test_writes_json(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
        path = save_results("unit_test", {"a": [1, 2]})
        assert os.path.exists(path)
        with open(path) as f:
            assert json.load(f) == {"a": [1, 2]}


class TestLatencyProbe:
    def test_latency_measured(self):
        sim = Simulator()
        probe = LatencyProbe(sim)
        sim.schedule(10, probe.mark_sent, "m")
        sim.schedule(35, probe.mark_delivered, "m")
        sim.run()
        assert probe.latencies == [25]
        assert probe.mean_us() == 0.025

    def test_unmatched_delivery_ignored(self):
        sim = Simulator()
        probe = LatencyProbe(sim)
        probe.mark_delivered("never-sent")
        assert probe.latencies == []
        assert probe.mean_us() is None

    def test_percentile(self):
        sim = Simulator()
        probe = LatencyProbe(sim)
        for i in range(100):
            probe.sent[i] = 0
            sim.schedule(i + 1, probe.mark_delivered, i)
        sim.run()
        assert probe.percentile_us(95) == pytest.approx(0.095)

    def test_percentile_small_samples_nearest_rank(self):
        """Regression: the old ``int(p/100*n) - 1`` rank was biased a
        full rank low — p99 over 10 samples returned the 9th value
        (~p80), deflating every figure's reported tail latency."""
        probe = LatencyProbe(Simulator())
        probe.latencies = [1000 * (i + 1) for i in range(10)]  # 1..10 us
        assert probe.percentile_us(50) == pytest.approx(5.0)
        assert probe.percentile_us(95) == pytest.approx(10.0)
        assert probe.percentile_us(99) == pytest.approx(10.0)  # was 9.0
        assert probe.percentile_us(100) == pytest.approx(10.0)

    def test_percentile_matches_histogram(self):
        from repro.sim.stats import Histogram

        probe = LatencyProbe(Simulator())
        probe.latencies = [7000, 1000, 4000, 9000, 2000]
        histogram = Histogram()
        histogram.extend(probe.latencies)
        for p in (0, 25, 50, 75, 90, 99, 100):
            assert probe.percentile_us(p) == histogram.percentile(p) / 1000

    def test_percentile_single_sample(self):
        probe = LatencyProbe(Simulator())
        probe.latencies = [5000]
        for p in (1, 50, 99):
            assert probe.percentile_us(p) == pytest.approx(5.0)
