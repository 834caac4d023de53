"""Unit tests for the Azure-like trace generator."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlatformError
from repro.sim.rng import RngStreams
from repro.workloads.generator import (POPULAR_FRACTION, assign_popularity,
                                       modulated_poisson_trace,
                                       poisson_trace)
from tests.helpers import sorted_modulated_trace


@pytest.fixture
def rng():
    return RngStreams(42)


class TestPopularity:
    def test_split_matches_shahrad(self, rng):
        """[48]: 18.6% of functions are called more than once a minute."""
        functions = [f"fn{i}" for i in range(100)]
        pops = assign_popularity(functions, rng)
        popular = [p for p in pops if p.popular]
        assert len(popular) == round(100 * POPULAR_FRACTION)

    def test_at_least_one_popular(self, rng):
        pops = assign_popularity(["only"], rng)
        assert pops[0].popular

    def test_empty_functions_raise(self, rng):
        with pytest.raises(PlatformError):
            assign_popularity([], rng)

    def test_popular_rate_faster(self, rng):
        pops = assign_popularity([f"fn{i}" for i in range(10)], rng)
        popular = [p for p in pops if p.popular]
        rare = [p for p in pops if not p.popular]
        assert all(p.mean_interarrival_ms < r.mean_interarrival_ms
                   for p in popular for r in rare)

    def test_deterministic(self):
        a = assign_popularity([f"fn{i}" for i in range(20)], RngStreams(1))
        b = assign_popularity([f"fn{i}" for i in range(20)], RngStreams(1))
        assert [p.function for p in a if p.popular] == \
            [p.function for p in b if p.popular]


class TestTrace:
    def test_sorted_by_time(self, rng):
        pops = assign_popularity([f"fn{i}" for i in range(5)], rng)
        trace = poisson_trace(pops, 600000.0, rng)
        times = [e.at_ms for e in trace]
        assert times == sorted(times)
        assert all(0 <= t < 600000.0 for t in times)

    def test_popular_functions_fire_more(self, rng):
        pops = assign_popularity([f"fn{i}" for i in range(10)], rng)
        trace = poisson_trace(pops, 3_600_000.0, rng)
        counts = {}
        for event in trace:
            counts[event.function] = counts.get(event.function, 0) + 1
        popular_counts = [counts.get(p.function, 0)
                          for p in pops if p.popular]
        rare_counts = [counts.get(p.function, 0)
                       for p in pops if not p.popular]
        assert min(popular_counts) > max(rare_counts)

    def test_rates_match_classes(self, rng):
        """Popular > 1/min; rare << 1/min, over a long horizon."""
        pops = assign_popularity([f"fn{i}" for i in range(10)], rng)
        duration = 7_200_000.0  # 2 hours
        trace = poisson_trace(pops, duration, rng)
        counts = Counter(event.function for event in trace)
        for pop in pops:
            rate = counts[pop.function] / (duration / 60000.0)
            if pop.popular:
                assert rate > 1.0
            else:
                assert rate < 1.0

    def test_zero_duration_raises(self, rng):
        with pytest.raises(PlatformError):
            poisson_trace([], 0.0, rng)

    def test_deterministic_trace(self):
        pops = assign_popularity(["a", "b"], RngStreams(3))
        t1 = poisson_trace(pops, 60000.0, RngStreams(3))
        t2 = poisson_trace(pops, 60000.0, RngStreams(3))
        assert t1 == t2


class TestModulatedTrace:
    """The lazy modulated trace is the sorted list, streamed."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           n_functions=st.integers(min_value=1, max_value=12),
           duration_ms=st.floats(min_value=1.0, max_value=30_000.0),
           popular_ms=st.floats(min_value=20.0, max_value=2_000.0),
           period_ms=st.floats(min_value=100.0, max_value=120_000.0),
           depth=st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_the_sorted_list(self, seed, n_functions,
                                           duration_ms, popular_ms,
                                           period_ms, depth):
        functions = [f"fn-{i:02d}" for i in range(n_functions)]
        pops = assign_popularity(functions, RngStreams(seed),
                                 popular_interarrival_ms=popular_ms,
                                 rare_interarrival_ms=50 * popular_ms)
        streamed = modulated_poisson_trace(pops, duration_ms,
                                           RngStreams(seed),
                                           period_ms=period_ms, depth=depth)
        oracle = sorted_modulated_trace(pops, duration_ms, RngStreams(seed),
                                        period_ms=period_ms, depth=depth)
        assert list(streamed) == oracle

    @pytest.mark.parametrize("kwargs", [
        dict(duration_ms=0.0),
        dict(duration_ms=1000.0, depth=1.0),
        dict(duration_ms=1000.0, depth=-0.1),
        dict(duration_ms=1000.0, period_ms=0.0),
    ])
    def test_bad_arguments_raise_at_call_time(self, rng, kwargs):
        pops = assign_popularity(["a", "b"], rng)
        with pytest.raises(PlatformError):
            modulated_poisson_trace(pops, rng=rng, **kwargs)


class TestZipfWeights:
    def test_normalized_and_monotone(self):
        from repro.workloads.generator import zipf_weights
        weights = zipf_weights(12)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert all(w > 0 for w in weights)

    def test_single_rank(self):
        from repro.workloads.generator import zipf_weights
        assert zipf_weights(1) == [1.0]

    def test_steeper_exponent_concentrates(self):
        from repro.workloads.generator import zipf_weights
        flat = zipf_weights(10, exponent=0.5)
        steep = zipf_weights(10, exponent=2.0)
        assert steep[0] > flat[0]

    def test_errors(self):
        from repro.workloads.generator import zipf_weights
        with pytest.raises(PlatformError):
            zipf_weights(0)
        with pytest.raises(PlatformError):
            zipf_weights(5, exponent=0.0)


class TestMultiTenantChainTrace:
    TENANTS = [f"tenant-{i:02d}" for i in range(5)]
    DAGS = ["diamond", "pipeline"]

    def _trace(self, seed=11, duration_ms=600_000.0, **kwargs):
        from repro.workloads.generator import multi_tenant_chain_trace
        return multi_tenant_chain_trace(self.TENANTS, self.DAGS,
                                        duration_ms, RngStreams(seed),
                                        **kwargs)

    def test_sorted_and_in_window(self):
        trace = self._trace()
        assert trace == sorted(trace,
                               key=lambda e: (e.at_ms, e.tenant, e.dag))
        assert all(0.0 <= e.at_ms < 600_000.0 for e in trace)
        assert {e.dag for e in trace} == set(self.DAGS)

    def test_deterministic(self):
        assert self._trace(seed=11) == self._trace(seed=11)

    def test_seed_changes_trace(self):
        assert self._trace(seed=11) != self._trace(seed=12)

    def test_zipf_ordering_of_tenant_counts(self):
        """Zipf head dominates: the hottest tenant submits the most,
        head ranks stay ordered, and the head/tail ratio is large.
        (Adjacent tail ranks may flip under Poisson noise — the expected
        gap there is small — so only robust order claims are made.)"""
        trace = self._trace(duration_ms=3_600_000.0)
        per_tenant = Counter(event.tenant for event in trace)
        counts = [per_tenant[t] for t in self.TENANTS]
        assert counts[0] == max(counts)
        assert counts[0] > counts[1] > counts[2]
        assert counts[0] >= 4 * min(counts)
        assert len(trace) == sum(counts)

    def test_streams_are_independent_per_pair(self):
        """Dropping a dag leaves the other dag's arrivals untouched."""
        from repro.workloads.generator import multi_tenant_chain_trace
        both = self._trace()
        only = multi_tenant_chain_trace(self.TENANTS, ["diamond"],
                                        600_000.0, RngStreams(11))
        assert [e for e in both if e.dag == "diamond"] == only

    def test_error_cases(self):
        from repro.workloads.generator import multi_tenant_chain_trace
        rng = RngStreams(1)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace([], self.DAGS, 1000.0, rng)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(self.TENANTS, [], 1000.0, rng)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(self.TENANTS, self.DAGS, 0.0, rng)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(self.TENANTS, self.DAGS, 1000.0,
                                     rng, mean_interarrival_ms=0.0)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(self.TENANTS, self.DAGS, 1000.0,
                                     rng, depth=1.0)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(self.TENANTS, self.DAGS, 1000.0,
                                     rng, period_ms=-1.0)
        with pytest.raises(PlatformError):
            multi_tenant_chain_trace(["a", "a"], self.DAGS, 1000.0, rng)

    def test_scales_to_hundreds_of_tenants(self):
        """Generation-only scale check: 300 tenants x 2 dags (600
        implied function chains) stays a pure, sorted event list."""
        from repro.workloads.generator import multi_tenant_chain_trace
        tenants = [f"t{i:03d}" for i in range(300)]
        trace = multi_tenant_chain_trace(tenants, self.DAGS, 120_000.0,
                                         RngStreams(5))
        assert trace
        ats = [e.at_ms for e in trace]
        assert ats == sorted(ats)
        per_tenant = Counter(event.tenant for event in trace)
        assert per_tenant["t000"] >= max(
            per_tenant[t] for t in tenants[250:])
