"""Tests for the statistics collectors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim.stats import Counter, Histogram, TimeSeries, WindowedRate


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


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("msgs")
        c.incr("msgs", 4)
        assert c.get("msgs") == 5
        assert c.get("unknown") == 0

    def test_rate(self):
        c = Counter()
        c.incr("msgs", 1000)
        assert c.rate("msgs", 1_000_000_000) == 1000.0
        with pytest.raises(ValueError):
            c.rate("msgs", 0)

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.incr("a")
        d = c.as_dict()
        d["a"] = 99
        assert c.get("a") == 1

    def test_rate_scales_with_duration(self):
        c = Counter()
        c.incr("msgs", 500)
        assert c.rate("msgs", 500_000_000) == 1000.0
        assert c.rate("msgs", 250_000_000) == 2000.0
        assert c.rate("missing", 1_000_000_000) == 0.0

    def test_negative_duration_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.rate("msgs", -1)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]),
                      st.integers(min_value=0, max_value=100)),
        )
    )
    def test_total_is_sum_of_increments(self, increments):
        c = Counter()
        expected = {}
        for name, amount in increments:
            c.incr(name, amount)
            expected[name] = expected.get(name, 0) + amount
        for name, total in expected.items():
            assert c.get(name) == total


class TestTimeSeries:
    def test_max_and_last(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        ts.record(10, 5.0)
        ts.record(20, 2.0)
        assert ts.max_value() == 5.0
        assert ts.last_value() == 2.0
        assert len(ts) == 3

    def test_time_average_step(self):
        ts = TimeSeries()
        ts.record(0, 0.0)
        ts.record(10, 10.0)  # value 0 held for 10ns
        ts.record(20, 0.0)  # value 10 held for 10ns
        assert ts.time_average() == 5.0

    def test_time_average_needs_two_points(self):
        ts = TimeSeries()
        ts.record(0, 1.0)
        with pytest.raises(ValueError):
            ts.time_average()

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
        assert ts.last_value() is None
        with pytest.raises(ValueError):
            ts.max_value()

    def test_zero_time_span_rejected(self):
        ts = TimeSeries()
        ts.record(10, 1.0)
        ts.record(10, 2.0)
        with pytest.raises(ValueError):
            ts.time_average()

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**6),
                      st.floats(min_value=0, max_value=1e6)),
            min_size=2,
        ).map(lambda pts: sorted(pts, key=lambda p: p[0]))
    )
    def test_time_average_within_value_bounds(self, points):
        ts = TimeSeries()
        for t, v in points:
            ts.record(t, v)
        if points[-1][0] == points[0][0]:
            return  # zero span: covered by the rejection test
        held = [v for t, v in points[:-1]]  # last value is never held
        avg = ts.time_average()
        assert min(held) - 1e-9 <= avg <= max(held) + 1e-9


class TestWindowedRate:
    def test_ignores_warmup(self):
        rate = WindowedRate(start_ns=1000)
        rate.record(500)
        rate.record(1500)
        rate.record(2000)
        assert rate.count == 2
        assert rate.per_second(2000) == 2 * 1e9 / 1000

    def test_window_not_started_raises(self):
        rate = WindowedRate(start_ns=1000)
        with pytest.raises(ValueError):
            rate.per_second(1000)

    def test_event_exactly_at_window_start_counts(self):
        rate = WindowedRate(start_ns=1000)
        rate.record(999)   # one ns early: warmup
        rate.record(1000)  # boundary: inside the window
        assert rate.count == 1

    def test_bulk_amounts(self):
        rate = WindowedRate(start_ns=0)
        rate.record(10, amount=7)
        rate.record(20, amount=3)
        assert rate.count == 10
        assert rate.per_second(1_000_000_000) == 10.0

    def test_end_before_start_raises(self):
        rate = WindowedRate(start_ns=1000)
        with pytest.raises(ValueError):
            rate.per_second(500)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.lists(st.integers(min_value=0, max_value=2000)),
    )
    def test_count_matches_filtered_events(self, start_ns, times):
        rate = WindowedRate(start_ns=start_ns)
        for t in times:
            rate.record(t)
        assert rate.count == sum(1 for t in times if t >= start_ns)
