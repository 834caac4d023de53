"""Unit tests for the shared experiment harness."""

import pytest

from repro.bench.harness import (cold_and_warm, fireworks_invocation,
                                 fleet, fresh_platform, install_all,
                                 invoke_once, provision_warm)
from repro.core.fireworks import FireworksPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.workloads import faasdom_spec


@pytest.fixture
def spec():
    return faasdom_spec("faas-netlatency", "nodejs")


class TestFreshPlatform:
    def test_isolated_hosts(self):
        a = fresh_platform(OpenWhiskPlatform)
        b = fresh_platform(OpenWhiskPlatform)
        assert a.sim is not b.sim
        assert a.host_memory is not b.host_memory

    def test_kwargs_forwarded(self):
        platform = fresh_platform(FireworksPlatform,
                                  restore_policy="reap")
        assert platform.restore_policy == "reap"

    def test_seed_controls_rng(self):
        a = fresh_platform(OpenWhiskPlatform, seed=1)
        b = fresh_platform(OpenWhiskPlatform, seed=1)
        assert a.sim.rng.stream("x").random() == \
            b.sim.rng.stream("x").random()


class TestInstallInvoke:
    def test_install_all_registers(self, spec):
        platform = fresh_platform(OpenWhiskPlatform)
        install_all(platform, [spec])
        assert platform.installed_functions() == (spec.name,)

    def test_invoke_once_returns_record(self, spec):
        platform = fresh_platform(OpenWhiskPlatform)
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name)
        assert record.function == spec.name
        assert record.total_ms > 0


class TestColdAndWarm:
    def test_modes_are_correct(self, spec):
        cold, warm = cold_and_warm(FirecrackerPlatform, spec)
        assert cold.mode == "cold"
        assert warm.mode == "warm"
        assert warm.startup_ms < cold.startup_ms

    def test_openwhisk_warm_via_prior_invocation(self, spec):
        cold, warm = cold_and_warm(OpenWhiskPlatform, spec)
        assert warm.startup_ms < cold.startup_ms


class TestProvisionWarm:
    def test_sandbox_manager_path(self, spec):
        platform = fresh_platform(FirecrackerPlatform)
        install_all(platform, [spec])
        provision_warm(platform, spec.name)
        assert platform.pool.size(spec.name, platform.sim.now) == 1

    def test_openwhisk_fallback_path(self, spec):
        platform = fresh_platform(OpenWhiskPlatform)
        install_all(platform, [spec])
        provision_warm(platform, spec.name)  # = one cold invocation
        assert platform.ledger.by_mode == {"cold": 1}
        record = invoke_once(platform, spec.name, mode="warm")
        assert record.mode == "warm"


class TestFireworksInvocation:
    def test_one_call_does_install_and_invoke(self, spec):
        record = fireworks_invocation(spec)
        assert record.mode == "snapshot"
        assert record.startup_ms < 60


class TestDrain:
    def test_drains_background_teardowns(self, spec):
        platform = fresh_platform(FireworksPlatform)
        install_all(platform, [spec])
        invoke_once(platform, spec.name)
        platform.sim.run()
        image = platform.image_for(spec.name)
        assert platform.host_memory.used_mb == pytest.approx(image.size_mb)


class TestFleet:
    def test_named_copies_of_one_benchmark(self, spec):
        specs = fleet(3)
        assert [one.name for one in specs] == ["fn-00", "fn-01", "fn-02"]
        for one in specs:
            assert (one.language, one.app, one.source, one.description) \
                == (spec.language, spec.app, spec.source, spec.description)
            assert one.program() == spec.program()
