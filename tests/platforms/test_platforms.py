"""Integration-style unit tests for the baseline platforms."""

import pytest

from repro.config import default_parameters
from repro.errors import FunctionNotFoundError, PlatformError
from repro.platforms import (MODE_COLD, MODE_SNAPSHOT, MODE_WARM,
                             FirecrackerPlatform,
                             FirecrackerSnapshotPlatform, GVisorPlatform,
                             OpenWhiskPlatform)
from repro.sim import Simulation
from repro.snapshot.image import STAGE_OS, STAGE_POST_JIT, STAGE_POST_LOAD
from repro.workloads import faasdom_spec
from tests.helpers import run


@pytest.fixture
def params():
    return default_parameters()


@pytest.fixture
def spec():
    return faasdom_spec("faas-fact", "nodejs")


def _installed(platform_cls, params, spec, **kwargs):
    sim = Simulation()
    platform = platform_cls(sim, params, **kwargs)
    run(sim, platform.install(spec))
    return platform


class TestRegistry:
    def test_invoke_uninstalled_raises(self, params, spec):
        sim = Simulation()
        platform = OpenWhiskPlatform(sim, params)
        with pytest.raises(FunctionNotFoundError):
            run(sim, platform.invoke("ghost"))

    def test_double_install_raises(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        with pytest.raises(PlatformError):
            run(platform.sim, platform.install(spec))

    def test_failed_backend_install_rolls_back(self, params, spec):
        """A backend failure must not leave a half-installed function
        registered — the install should be retryable."""
        class FlakyInstall(OpenWhiskPlatform):
            fail_next = True

            def _install_backend(self, spec, host):
                yield from super()._install_backend(spec, host)
                if FlakyInstall.fail_next:
                    FlakyInstall.fail_next = False
                    raise PlatformError("disk full")

        sim = Simulation()
        platform = FlakyInstall(sim, params)
        with pytest.raises(PlatformError, match="disk full"):
            run(sim, platform.install(spec))
        assert spec.name not in platform.installed_functions()
        # Rollback means the retry is not rejected as a double install.
        run(sim, platform.install(spec))
        assert spec.name in platform.installed_functions()

    def test_installed_functions_listed(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        assert platform.installed_functions() == (spec.name,)


class TestOpenWhisk:
    def test_cold_then_warm(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        cold = run(platform.sim, platform.invoke(spec.name))
        warm = run(platform.sim, platform.invoke(spec.name))
        assert cold.mode == MODE_COLD
        assert warm.mode == MODE_WARM
        assert warm.startup_ms < cold.startup_ms / 20
        assert platform.ledger.by_mode == {MODE_COLD: 1, MODE_WARM: 1}

    def test_warm_keeps_jit_state(self, params, spec):
        """OpenWhisk reuses the runtime process: V8 state survives, so the
        warm execution is faster than the cold one (it re-used JITted
        code)."""
        platform = _installed(OpenWhiskPlatform, params, spec)
        cold = run(platform.sim, platform.invoke(spec.name))
        warm = run(platform.sim, platform.invoke(spec.name))
        assert warm.exec_ms < cold.exec_ms

    def test_keepalive_expiry_forces_cold(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        run(platform.sim, platform.invoke(spec.name))
        keepalive = params.control_plane.warm_keepalive_ms
        platform.sim.run(until=platform.sim.now + keepalive + 1)
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.mode == MODE_COLD
        assert platform.ledger.by_mode == {MODE_COLD: 2}

    def test_forced_warm_without_pool_raises(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        with pytest.raises(PlatformError, match="warm pool is empty"):
            run(platform.sim, platform.invoke(spec.name, mode=MODE_WARM))


class TestFirecracker:
    def test_cold_start_is_slowest(self, params, spec):
        fc = _installed(FirecrackerPlatform, params, spec)
        ow = _installed(OpenWhiskPlatform, params, spec)
        gv = _installed(GVisorPlatform, params, spec)
        fc_cold = run(fc.sim, fc.invoke(spec.name, mode=MODE_COLD))
        ow_cold = run(ow.sim, ow.invoke(spec.name, mode=MODE_COLD))
        gv_cold = run(gv.sim, gv.invoke(spec.name, mode=MODE_COLD))
        assert fc_cold.startup_ms > gv_cold.startup_ms > ow_cold.startup_ms

    def test_warm_via_paused_vm(self, params, spec):
        platform = _installed(FirecrackerPlatform, params, spec)
        run(platform.sim, platform.provision_warm(spec.name))
        record = run(platform.sim, platform.invoke(spec.name,
                                                   mode=MODE_WARM))
        assert record.mode == MODE_WARM
        assert record.startup_ms == pytest.approx(
            params.latency("microvm").resume_paused_ms)

    def test_warm_exec_still_jits(self, params, spec):
        """§5.1: the warm sandbox was installed but never executed, so the
        first run still pays JIT warm-up."""
        platform = _installed(FirecrackerPlatform, params, spec)
        run(platform.sim, platform.provision_warm(spec.name))
        warm = run(platform.sim, platform.invoke(spec.name, mode=MODE_WARM))
        assert warm.guest.jit_compile_ms > 0

    def test_worker_torn_down_after_invoke(self, params, spec):
        platform = _installed(FirecrackerPlatform, params, spec)
        run(platform.sim, platform.invoke(spec.name))
        platform.sim.run()
        assert platform.host_memory.used_mb == 0

    def test_retained_workers_keep_memory(self, params, spec):
        platform = _installed(FirecrackerPlatform, params, spec)
        platform.retain_workers = True
        run(platform.sim, platform.invoke(spec.name))
        assert platform.host_memory.used_mb > 100
        assert len(platform.active_workers) == 1

    def test_chains_unsupported(self, params):
        from repro.workloads import alexa_skills_chain
        chain = alexa_skills_chain()
        sim = Simulation()
        platform = FirecrackerPlatform(sim, params)
        for fn_spec in chain.functions:
            run(sim, platform.install(fn_spec))
        with pytest.raises(PlatformError, match="chain"):
            run(sim, platform.invoke(chain.entry, payload={"skill": "fact"}))


class TestFirecrackerSnapshot:
    def test_post_jit_stage_rejected(self, params):
        sim = Simulation()
        with pytest.raises(PlatformError, match="post-JIT"):
            FirecrackerSnapshotPlatform(sim, params, stage=STAGE_POST_JIT)

    def test_os_stage_invocation(self, params, spec):
        platform = _installed(FirecrackerSnapshotPlatform, params, spec,
                              stage=STAGE_OS)
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.mode == MODE_SNAPSHOT
        # Startup includes app load but not runtime launch or OS boot.
        cfg = params.runtime("nodejs")
        assert record.startup_ms > cfg.app_load_base_ms
        assert record.startup_ms < 700
        # Without post-JIT, execution still pays the V8 warm-up.
        assert record.guest.jit_compile_ms > 0

    def test_post_load_stage_skips_app_load(self, params, spec):
        os_platform = _installed(FirecrackerSnapshotPlatform, params, spec,
                                 stage=STAGE_OS)
        load_platform = _installed(FirecrackerSnapshotPlatform, params,
                                   spec, stage=STAGE_POST_LOAD)
        os_rec = run(os_platform.sim, os_platform.invoke(spec.name))
        load_rec = run(load_platform.sim, load_platform.invoke(spec.name))
        assert load_rec.startup_ms < os_rec.startup_ms

    def test_invoke_without_install_raises(self, params, spec):
        sim = Simulation()
        platform = FirecrackerSnapshotPlatform(sim, params, stage=STAGE_OS)
        platform._specs[spec.name] = spec  # bypass install
        with pytest.raises(PlatformError, match="no snapshot"):
            run(sim, platform.invoke(spec.name))


class TestGVisor:
    def test_io_heavy_exec_slowest(self, params):
        diskio = faasdom_spec("faas-diskio", "nodejs")
        gv = _installed(GVisorPlatform, params, diskio)
        fc = _installed(FirecrackerPlatform, params, diskio)
        gv_rec = run(gv.sim, gv.invoke(diskio.name, mode=MODE_COLD))
        fc_rec = run(fc.sim, fc.invoke(diskio.name, mode=MODE_COLD))
        assert gv_rec.exec_ms > 5 * fc_rec.exec_ms

    def test_warm_provisioning(self, params, spec):
        platform = _installed(GVisorPlatform, params, spec)
        run(platform.sim, platform.provision_warm(spec.name))
        record = run(platform.sim, platform.invoke(spec.name,
                                                   mode=MODE_WARM))
        assert record.startup_ms == pytest.approx(
            params.latency("gvisor").resume_paused_ms)


class TestInvocationRecord:
    def test_breakdown_sums_to_total(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        record = run(platform.sim, platform.invoke(spec.name))
        assert record.total_ms == pytest.approx(
            record.startup_ms + record.exec_ms + record.other_ms)

    def test_every_completion_is_folded(self, params, spec):
        platform = _installed(OpenWhiskPlatform, params, spec)
        records = [run(platform.sim, platform.invoke(spec.name))
                   for _ in range(2)]
        assert platform.ledger.completed == 2
        assert list(platform.ledger.total_ms) == [r.total_ms for r in records]

    def test_table1_row(self, params, spec):
        platform = _installed(FirecrackerPlatform, params, spec)
        row = platform.table1_row()
        assert row["isolation"] == "High (VM)"
        assert row["platform"] == "firecracker"
