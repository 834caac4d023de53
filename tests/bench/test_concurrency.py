"""Tests for the burst-load extension experiments."""

import pytest

from repro.bench.concurrency import COMPARISON_PLATFORMS, run_burst
from repro.bench.engine import run_experiments
from repro.core.fireworks import FireworksPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform


class TestRunBurst:
    def test_all_requests_complete(self):
        result = run_burst(FireworksPlatform, requests=32, cores=8)
        assert result.latency.count == 32
        assert result.requests == 32
        assert result.makespan_ms >= result.latency.p99_ms

    def test_queueing_appears_when_oversubscribed(self):
        under = run_burst(FireworksPlatform, requests=8, cores=8)
        over = run_burst(FireworksPlatform, requests=64, cores=8)
        assert under.mean_queue_wait_ms == 0.0
        assert over.mean_queue_wait_ms > 0.0
        assert over.peak_queue_length > 0

    def test_openwhisk_reuses_containers_under_burst(self):
        result = run_burst(OpenWhiskPlatform, requests=64, cores=8,
                           benchmark="faas-netlatency")
        # Later queued requests find containers released by earlier ones.
        assert result.warm_share > 0.5

    def test_deterministic(self):
        a = run_burst(FireworksPlatform, requests=16, cores=4, seed=3)
        b = run_burst(FireworksPlatform, requests=16, cores=4, seed=3)
        assert a.latency.p99_ms == b.latency.p99_ms


class TestBurstComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return {name: run_burst(platform_cls, requests=128, cores=32)
                for name, platform_cls in COMPARISON_PLATFORMS.items()}

    def test_fireworks_best_tail(self, comparison):
        fw = comparison["fireworks"].latency.p99_ms
        assert fw < comparison["openwhisk"].latency.p99_ms / 5
        assert fw < comparison["firecracker"].latency.p99_ms / 10

    def test_fireworks_shortest_makespan(self, comparison):
        makespans = {name: result.makespan_ms
                     for name, result in comparison.items()}
        assert min(makespans, key=makespans.get) == "fireworks"


class TestBurstExperiment:
    """The catalog ``burst``: 256 simultaneous faas-netlatency requests on
    the paper's 64-core host."""

    @pytest.fixture(scope="class")
    def burst(self):
        return run_experiments(["burst"], use_cache=False).results["burst"]

    def test_fireworks_tail_far_below_baselines(self, burst):
        fireworks = burst["fireworks"].latency.p99_ms
        assert fireworks < burst["openwhisk"].latency.p99_ms / 5
        assert fireworks < burst["firecracker"].latency.p99_ms / 20

    def test_fireworks_drains_the_burst_fastest(self, burst):
        assert burst["fireworks"].makespan_ms < min(
            burst["openwhisk"].makespan_ms, burst["firecracker"].makespan_ms)

    def test_only_openwhisk_recycles_mid_burst(self, burst):
        assert burst["openwhisk"].warm_share > 0.3
        assert burst["firecracker"].warm_share == 0.0
