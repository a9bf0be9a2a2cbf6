"""Tests for the statistics collectors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim.stats import Histogram, TimeSeries


class TestHistogram:
    def test_mean_std(self):
        h = Histogram()
        h.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert h.mean() == 5.0
        assert math.isclose(h.std(), 2.138, rel_tol=1e-3)

    def test_percentiles(self):
        h = Histogram()
        h.extend(range(1, 101))
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(99) == 99
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_unsorted_insertion_still_correct(self):
        h = Histogram()
        h.extend([5, 1, 9, 3, 7])
        assert h.min() == 1
        assert h.max() == 9
        assert h.percentile(50) == 5

    def test_empty_raises(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.mean()
        with pytest.raises(ValueError):
            h.percentile(50)

    def test_bad_percentile_rejected(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_keys(self):
        h = Histogram()
        h.extend([1, 2, 3])
        summary = h.summary()
        assert set(summary) == {
            "count", "mean", "std", "min", "p5", "p50", "p95", "p99", "max",
        }
        assert summary["count"] == 3

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1))
    def test_percentile_bounds_property(self, values):
        h = Histogram()
        h.extend(values)
        assert h.min() <= h.percentile(50) <= h.max()
        # Mean can exceed the bounds by float rounding; allow an epsilon.
        eps = 1e-6 * max(1.0, abs(h.min()), abs(h.max()))
        assert h.min() - eps <= h.mean() <= h.max() + eps

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1))
    def test_percentile_monotone_property(self, values):
        h = Histogram()
        h.extend(values)
        ps = [h.percentile(p) for p in (5, 25, 50, 75, 95)]
        assert ps == sorted(ps)

    def test_single_sample_every_percentile(self):
        h = Histogram()
        h.add(42)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 42
        assert h.mean() == 42
        assert h.std() == 0.0

    def test_negative_percentile_rejected(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_unsorted_insert_after_read_resorts(self):
        # A percentile read sorts the samples; later out-of-order adds
        # must flip the sorted flag again or reads go stale.
        h = Histogram()
        h.extend([5, 1, 9])
        assert h.percentile(50) == 5
        h.add(0)  # below the current max: marks unsorted
        h.add(2)
        assert h.percentile(0) == 0
        assert h.percentile(50) == 2
        assert h.percentile(100) == 9

    def test_percentile_matches_sorted_reference_seeded(self):
        rng = random.Random(1234)
        values = [rng.randint(-10_000, 10_000) for _ in range(997)]
        h = Histogram()
        h.extend(values)
        ordered = sorted(values)
        for p in (1, 10, 50, 90, 99, 100):
            rank = math.ceil(p / 100.0 * len(ordered))
            assert h.percentile(p) == ordered[rank - 1]
        assert h.percentile(0) == ordered[0]

    @given(
        st.sampled_from([5, 50, 95, 99, 99.9]),
        st.integers(min_value=1, max_value=5000),
    )
    @example(99.9, 1000)
    def test_percentile_rank_uses_decimal_p(self, p, n):
        # 99.9 / 100.0 * 1000 == 999.0000000000001 in binary floating
        # point: a float ceil returns the max for p99.9 of 1000*k samples.
        h = Histogram()
        h.extend(range(1, n + 1))  # the sample at rank r is r
        assert h.percentile(p) == math.ceil(Fraction(str(p)) / 100 * n)

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_percentile_0_and_100_are_min_and_max(self, values):
        h = Histogram()
        h.extend(values)
        assert h.percentile(0) == h.min()
        assert h.percentile(100) == h.max()


class TestTimeSeries:
    def test_max_and_last(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        ts.record(10, 5.0)
        ts.record(20, 2.0)
        assert ts.max_value() == 5.0
        assert ts.points[-1] == (20, 2.0)
        assert len(ts) == 3

    def test_points_preserve_recording_order(self):
        ts = TimeSeries()
        samples = [(0, 3.0), (5, 1.0), (5, 2.0), (12, 0.0)]
        for t, v in samples:
            ts.record(t, v)
        assert ts.points == samples

    def test_points_is_a_copy(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        pts = ts.points
        pts.append((99, 99.0))
        assert len(ts) == 1

    def test_empty_series(self):
        ts = TimeSeries()
        assert len(ts) == 0
        assert ts.points == []
        with pytest.raises(ValueError):
            ts.max_value()
