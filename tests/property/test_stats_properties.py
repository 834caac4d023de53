"""Property-based tests: percentile invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import LatencyStats, percentile

samples = st.lists(st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False),
                   min_size=1, max_size=200)


class TestPercentileProperties:
    @given(samples, st.floats(0.0, 100.0))
    @settings(max_examples=100)
    def test_within_sample_range(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(samples, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=100)
    def test_monotone_in_q(self, values, q1, q2):
        low, high = sorted((q1, q2))
        assert percentile(values, low) <= percentile(values, high)

    @given(samples)
    @settings(max_examples=60)
    def test_p0_and_p100_are_extremes(self, values):
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    @given(samples, st.floats(0.0, 100.0), st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_scale_equivariance(self, values, q, factor):
        scaled = [v * factor for v in values]
        assert percentile(scaled, q) == \
            abs(percentile(values, q) * factor) or \
            abs(percentile(scaled, q) - percentile(values, q) * factor) \
            < 1e-6 * max(1.0, max(scaled))


class TestStatsProperties:
    @given(samples)
    @settings(max_examples=60)
    def test_ordering_invariants(self, values):
        stats = LatencyStats.from_samples(values)
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms
        # The mean may wobble by a ULP of the sum for near-identical values.
        tolerance = 1e-9 * max(1.0, max(values))
        assert min(values) - tolerance <= stats.mean_ms \
            <= max(values) + tolerance
