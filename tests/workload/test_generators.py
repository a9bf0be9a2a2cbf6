"""Property tests of the open-loop arrival primitives (hypothesis).

- arrival sequences are byte-identical per (seed, curve, window) —
  the foundation of the workload report's byte-identity guarantee;
- rate-curve integration conserves offered load: ``expected_ops`` is
  additive over arbitrary partitions of the window, and realized
  arrival counts agree with the integral statistically.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.randomness import RngStreams
from repro.workload.generators import OpenLoopArrivals, RateCurve

fast = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Arrival processes: byte-identical per seed
# ----------------------------------------------------------------------
curve_strategy = st.one_of(
    st.floats(min_value=1e4, max_value=5e6).map(RateCurve.constant),
    st.tuples(
        st.floats(min_value=1e4, max_value=1e5),
        st.floats(min_value=2e5, max_value=5e6),
        st.integers(min_value=1, max_value=200_000),
        st.integers(min_value=10_000, max_value=200_000),
        st.integers(min_value=0, max_value=200_000),
    ).map(lambda a: RateCurve.flash_crowd(a[0], a[1], a[2], a[3], a[4])),
    st.tuples(
        st.floats(min_value=1e4, max_value=1e5),
        st.floats(min_value=2e5, max_value=2e6),
        st.integers(min_value=8, max_value=400_000),
        st.integers(min_value=1, max_value=600_000),
    ).map(lambda a: RateCurve.diurnal(a[0], a[1], a[2], a[3])),
)


@fast
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    curve=curve_strategy,
    start=st.integers(min_value=0, max_value=100_000),
    span=st.integers(min_value=1, max_value=400_000),
)
def test_arrivals_byte_identical_per_seed(seed, curve, start, span):
    def run(s):
        rng = RngStreams(s).stream("workload.arrivals.t")
        return OpenLoopArrivals.times(rng, curve, start, start + span)

    first, second = run(seed), run(seed)
    assert first == second
    # Sorted, integer, inside the window.
    assert all(isinstance(t, int) for t in first)
    assert first == sorted(first)
    assert all(start <= t < start + span for t in first)


def test_arrivals_differ_across_streams_and_seeds():
    curve = RateCurve.constant(2_000_000)
    streams = RngStreams(7)
    a = OpenLoopArrivals.times(streams.stream("a"), curve, 0, 500_000)
    b = OpenLoopArrivals.times(streams.stream("b"), curve, 0, 500_000)
    c = OpenLoopArrivals.times(RngStreams(8).stream("a"), curve, 0, 500_000)
    assert a and b and c
    assert a != b  # independent named streams
    assert a != c  # different seeds


# ----------------------------------------------------------------------
# Rate-curve integration conserves total offered load
# ----------------------------------------------------------------------
@fast
@given(
    curve=curve_strategy,
    bounds=st.lists(
        st.integers(min_value=0, max_value=1_000_000),
        min_size=3, max_size=8, unique=True,
    ),
)
def test_expected_ops_additive_over_partitions(curve, bounds):
    cuts = sorted(bounds)
    whole = curve.expected_ops(cuts[0], cuts[-1])
    parts = sum(
        curve.expected_ops(a, b) for a, b in zip(cuts, cuts[1:])
    )
    assert math.isclose(whole, parts, rel_tol=1e-9, abs_tol=1e-9)


@fast
@given(curve=curve_strategy, t=st.integers(min_value=0, max_value=1_500_000))
def test_rate_bounded_by_knots(curve, t):
    rates = [r for _, r in curve.points]
    assert min(rates) - 1e-9 <= curve.rate_at(t) <= max(rates) + 1e-9
    assert curve.peak() == max(rates)


def test_arrival_count_tracks_expected_ops():
    """Realized Poisson counts agree with the integral: the relative
    error over many windows stays within ~5 standard deviations."""
    curve = RateCurve.flash_crowd(200_000, 3_000_000, 100_000, 50_000, 300_000)
    expected = curve.expected_ops(0, 600_000)
    total = 0
    n_runs = 30
    for i in range(n_runs):
        rng = RngStreams(1000 + i).stream("workload.arrivals.x")
        total += len(OpenLoopArrivals.times(rng, curve, 0, 600_000))
    mean = total / n_runs
    sigma = math.sqrt(expected / n_runs)  # Poisson, averaged over runs
    assert abs(mean - expected) < 5 * sigma


def test_expected_ops_exact_on_simple_shapes():
    # 1M ops/s for 1 ms -> exactly 1000 ops.
    assert RateCurve.constant(1_000_000).expected_ops(0, 1_000_000) == 1000.0
    # Linear ramp 0 -> 2M over 1 ms -> area = 1000 ops.
    ramp = RateCurve(((0, 0.0), (1_000_000, 2_000_000.0)))
    assert math.isclose(ramp.expected_ops(0, 1_000_000), 1000.0)
