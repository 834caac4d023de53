"""Unit tests for the Catalyzer-style baseline (extension)."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.errors import PlatformError
from repro.platforms import MODE_COLD, MODE_WARM
from repro.platforms.catalyzer import (CHECKPOINT_RESTORE_MS, SFORK_MS,
                                       CatalyzerPlatform)
from repro.workloads import faasdom_spec


@pytest.fixture
def catalyzer():
    platform = fresh_platform(CatalyzerPlatform)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    return platform, spec


class TestLifecycle:
    def test_install_builds_resident_template(self, catalyzer):
        platform, spec = catalyzer
        assert (0, spec.name) in platform._templates
        template = platform._templates[(0, spec.name)]
        assert template.worker.sandbox.state == "paused"
        assert platform.host_memory.used_mb > 50  # template stays resident

    def test_invoke_without_install_raises(self):
        platform = fresh_platform(CatalyzerPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        platform._specs[spec.name] = spec
        with pytest.raises(PlatformError, match="checkpoint"):
            invoke_once(platform, spec.name)


class TestStartModes:
    def test_warm_is_sfork(self, catalyzer):
        platform, spec = catalyzer
        record = invoke_once(platform, spec.name, mode=MODE_WARM)
        assert record.mode == MODE_WARM
        assert record.startup_ms == pytest.approx(SFORK_MS)
        assert record.span.find("sfork") is not None
        assert record.span.find("checkpoint-restore") is None

    def test_cold_is_checkpoint_restore(self, catalyzer):
        platform, spec = catalyzer
        record = invoke_once(platform, spec.name, mode=MODE_COLD)
        assert record.startup_ms == pytest.approx(CHECKPOINT_RESTORE_MS)
        assert record.span.find("checkpoint-restore") is not None
        assert record.span.find("sfork") is None

    def test_sfork_faster_than_fireworks_restore(self, catalyzer):
        """Table 1: Catalyzer performance is 'High (pre-launching)'."""
        from repro.core import FireworksPlatform
        platform, spec = catalyzer
        warm = invoke_once(platform, spec.name, mode=MODE_WARM)

        fireworks = fresh_platform(FireworksPlatform)
        install_all(fireworks, [spec])
        fw_record = invoke_once(fireworks, spec.name)
        assert warm.startup_ms < fw_record.startup_ms

    def test_execution_pays_gvisor_and_no_post_jit(self, catalyzer):
        """The checkpoint captured a *clean* (never-executed) state, so the
        first run still pays JIT warm-up — the piece Fireworks adds."""
        platform, spec = catalyzer
        record = invoke_once(platform, spec.name)
        assert record.guest.jit_compile_ms > 0

    def test_isolation_is_container_level(self):
        assert "container" in CatalyzerPlatform.isolation_label.lower()

    def test_clones_are_independent(self, catalyzer):
        platform, spec = catalyzer
        platform.retain_workers = True
        first = invoke_once(platform, spec.name)
        second = invoke_once(platform, spec.name)
        assert first.worker is not second.worker
        # Each fork executed (and tiered) on its own.
        assert first.worker.runtime.invocations == 1
        assert second.worker.runtime.invocations == 1
