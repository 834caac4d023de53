"""Unit tests for the keep-alive policies ([48]'s hybrid histogram)."""

import pytest

from repro.errors import PlatformError, ValidationError
from repro.policy.keepalive import (FixedKeepAlive,
                                    HybridHistogramKeepAlive)


class TestFixed:
    def test_same_window_for_everyone(self):
        policy = FixedKeepAlive(fixed_window_ms=1000.0)
        policy.observe_arrival("a", 0.0)
        assert policy.window_ms("a") == 1000.0
        assert policy.window_ms("never-seen") == 1000.0


class TestHybridHistogram:
    def test_coverage_validated(self):
        with pytest.raises(PlatformError):
            HybridHistogramKeepAlive(coverage=0.0)

    def test_falls_back_until_warm(self):
        policy = HybridHistogramKeepAlive(default_window_ms=999.0,
                                          warmup_samples=3)
        policy.observe_arrival("f", 0.0)
        policy.observe_arrival("f", 100.0)
        assert policy.history.gap_count("f") == 1
        assert policy.window_ms("f") == 999.0  # not enough gaps yet

    def test_learns_per_function_windows(self):
        policy = HybridHistogramKeepAlive(warmup_samples=3,
                                          min_window_ms=0.0)
        # "fast" arrives every 10 s; "slow" every 40 min.
        for index in range(6):
            policy.observe_arrival("fast", index * 10000.0)
            policy.observe_arrival("slow", index * 2400000.0)
        assert policy.window_ms("fast") == pytest.approx(10000.0)
        # slow's observed gaps exceed the cap -> capped at the max window.
        assert policy.window_ms("slow") == policy.max_window_ms

    def test_coverage_percentile(self):
        policy = HybridHistogramKeepAlive(warmup_samples=3,
                                          coverage=0.5, min_window_ms=0.0)
        times = [0.0, 10.0, 30.0, 60.0, 100.0]  # gaps 10,20,30,40
        for t in times:
            policy.observe_arrival("f", t)
        assert policy.window_ms("f") == pytest.approx(30.0)

    def test_floor_applied(self):
        policy = HybridHistogramKeepAlive(warmup_samples=2,
                                          min_window_ms=5000.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            policy.observe_arrival("f", t)
        assert policy.window_ms("f") == 5000.0


class TestOpenWhiskIntegration:
    def test_adaptive_policy_expires_rare_functions(self):
        """A rare function's container is gone by its next arrival under
        the adaptive policy (saving memory); the fixed 10-min policy would
        also miss here, but for a *popular* function the adaptive window
        shrinks without losing warm hits."""
        from repro.bench import fresh_platform, install_all, invoke_once
        from repro.platforms.openwhisk import OpenWhiskPlatform
        from repro.workloads import faasdom_spec

        policy = HybridHistogramKeepAlive(warmup_samples=2,
                                          min_window_ms=15000.0)
        platform = fresh_platform(OpenWhiskPlatform,
                                  keepalive_policy=policy)
        spec = faasdom_spec("faas-netlatency", "nodejs")
        install_all(platform, [spec])

        # Popular cadence: every 10 s -> learned window ~15 s (floor).
        for _ in range(5):
            invoke_once(platform, spec.name)
            platform.sim.run(until=platform.sim.now + 10000.0)
        # Stays warm at its cadence.
        assert platform.ledger.by_mode.get("warm", 0) >= 3

        # Now the function goes quiet for 2 minutes: with the learned
        # ~15 s window the container expired (memory released)...
        platform.sim.run(until=platform.sim.now + 120000.0)
        record = invoke_once(platform, spec.name)
        assert record.mode == "cold"

    def test_a_nan_window_raises_instead_of_leaking_the_container(self):
        """A document whose window is 0 * inf before any gap is observed
        stops the run naming the policy: parked with a NaN expiry, the
        container would be neither live nor expired, never torn down."""
        from repro.bench import fresh_platform, install_all, invoke_once
        from repro.platforms.openwhisk import OpenWhiskPlatform
        from repro.policy import resolve
        from repro.workloads import faasdom_spec

        policy = resolve("keepalive", {
            "name": "nan-window", "domain": "keepalive",
            "tree": {"value": {"sum": [
                {"signal": {"name": "gap_percentile_ms", "q": 0.5},
                 "weight": 0.0}]}}})
        platform = fresh_platform(OpenWhiskPlatform,
                                  keepalive_policy=policy)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        with pytest.raises(ValidationError, match="'nan-window'.*NaN"):
            invoke_once(platform, spec.name)

    def test_default_platform_uses_fixed_policy(self):
        from repro.bench import fresh_platform
        from repro.platforms.openwhisk import OpenWhiskPlatform
        platform = fresh_platform(OpenWhiskPlatform)
        assert isinstance(platform.keepalive, FixedKeepAlive)
        assert platform.keepalive.fixed_window_ms == \
            platform.params.control_plane.warm_keepalive_ms
