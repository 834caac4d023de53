"""Unit tests for the sustained-load sweep."""

import pytest

from repro.bench.concurrency import LoadPoint, run_load_sweep
from repro.bench.stats import LatencyStats
from repro.core.fireworks import FireworksPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform


class TestLoadPoint:
    def test_saturation_flag(self):
        stats = LatencyStats.from_samples([10.0, 10.0, 10.0])
        calm = LoadPoint(10.0, 10.0, stats, mean_queue_wait_ms=1.0)
        stressed = LoadPoint(10.0, 5.0, stats, mean_queue_wait_ms=50.0)
        assert not calm.saturated
        assert stressed.saturated


class TestSweep:
    def test_fireworks_flat_under_load(self):
        points = run_load_sweep(FireworksPlatform,
                                rates_rps=(30.0, 300.0),
                                duration_ms=4000.0)
        assert points[30.0].latency.p50_ms == \
            pytest.approx(points[300.0].latency.p50_ms, rel=0.10)

    def test_firecracker_saturates(self):
        points = run_load_sweep(FirecrackerPlatform, rates_rps=(200.0,),
                                duration_ms=4000.0)
        point = points[200.0]
        assert point.saturated
        # Throughput ~ cores / boot-dominated service time.
        assert point.achieved_rps < 50

    def test_achieved_tracks_offered_when_unsaturated(self):
        points = run_load_sweep(FireworksPlatform, rates_rps=(100.0,),
                                duration_ms=6000.0)
        assert points[100.0].achieved_rps == pytest.approx(100.0, rel=0.3)

    def test_deterministic(self):
        a = run_load_sweep(FireworksPlatform, rates_rps=(50.0,),
                           duration_ms=3000.0, seed=5)
        b = run_load_sweep(FireworksPlatform, rates_rps=(50.0,),
                           duration_ms=3000.0, seed=5)
        assert a[50.0].latency.p99_ms == b[50.0].latency.p99_ms


class TestThreePlatformSweep:
    """Open-loop faas-netlatency at 25-400 rps on the 64-core host: where
    each platform saturates (§2.2's consolidation argument, as
    throughput)."""

    RATES = (25.0, 100.0, 400.0)

    @pytest.fixture(scope="class")
    def sweep(self):
        return {cls.name: run_load_sweep(cls, rates_rps=self.RATES,
                                         duration_ms=8000.0)
                for cls in (FireworksPlatform, OpenWhiskPlatform,
                            FirecrackerPlatform)}

    def test_fireworks_flat_and_never_saturated(self, sweep):
        p50s = [point.latency.p50_ms for point in sweep["fireworks"].values()]
        assert max(p50s) - min(p50s) < 5.0
        assert not any(point.saturated
                       for point in sweep["fireworks"].values())

    def test_firecracker_capped_by_cores_over_boot_time(self, sweep):
        """Throughput caps at cores / per-request core occupancy (~2.37 s
        of boot and exec)."""
        top = sweep["firecracker"][max(self.RATES)]
        assert top.saturated
        assert top.achieved_rps == pytest.approx(64 / 2.37, rel=0.15)

    def test_openwhisk_keeps_throughput_with_a_heavy_tail(self, sweep):
        top_rate = max(self.RATES)
        openwhisk = sweep["openwhisk"][top_rate]
        assert openwhisk.achieved_rps > 300
        assert openwhisk.latency.p99_ms > \
            10 * sweep["fireworks"][top_rate].latency.p99_ms
