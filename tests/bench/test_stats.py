"""Unit tests for latency statistics."""

import pytest

from repro.bench.stats import LatencyStats, percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([42.0], 99) == 42.0

    def test_median_of_odd(self):
        assert percentile([1, 3, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        samples = list(range(101))
        assert percentile(samples, 0) == 0
        assert percentile(samples, 100) == 100

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_order_independent(self):
        a = [5, 1, 9, 3, 7]
        assert percentile(a, 90) == percentile(sorted(a), 90)


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([10.0, 20.0, 30.0, 40.0])
        assert stats.count == 4
        assert stats.mean_ms == pytest.approx(25.0)
        assert stats.p50_ms == pytest.approx(25.0)
        assert stats.max_ms == 40.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])

    def test_as_line(self):
        line = LatencyStats.from_samples([1.0, 2.0]).as_line()
        assert "p99" in line and "n=2" in line

    def test_percentiles_ordered(self):
        stats = LatencyStats.from_samples(list(range(1000)))
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms
