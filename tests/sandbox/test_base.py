"""Unit tests for sandbox lifecycle and memory wiring."""

import pytest

from repro.errors import SandboxError
from repro.mem.host_memory import HostMemory
from repro.sandbox import (Container, GVisorSandbox, MicroVM, V8Isolate,
                           STATE_CREATED, STATE_PAUSED, STATE_RUNNING,
                           STATE_STOPPED)
from repro.sim.kernel import Simulation
from tests.helpers import run


@pytest.fixture
def microvm(sim, params, host):
    return MicroVM(sim, params, host, "nodejs", name="vm-under-test")


class TestLifecycle:
    def test_boot_sequence_timing(self, sim, params, host, microvm):
        assert microvm.state == STATE_CREATED
        run(sim, microvm.boot())
        latency = params.latency("microvm")
        assert sim.now == pytest.approx(
            latency.create_ms + latency.os_boot_ms)
        assert microvm.state == STATE_RUNNING

    def test_double_boot_raises(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        with pytest.raises(SandboxError):
            run(sim, microvm.boot())

    def test_pause_resume_cycle(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        run(sim, microvm.pause())
        assert microvm.state == STATE_PAUSED
        run(sim, microvm.resume())
        assert microvm.state == STATE_RUNNING

    def test_pause_when_not_running_raises(self, sim, params, microvm):
        with pytest.raises(SandboxError):
            run(sim, microvm.pause())

    def test_resume_when_not_paused_raises(self, sim, params, microvm):
        run(sim, microvm.boot())
        with pytest.raises(SandboxError):
            run(sim, microvm.resume())

    def test_stop_releases_memory(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        assert host.used_mb > 0
        run(sim, microvm.stop())
        assert microvm.state == STATE_STOPPED
        assert host.used_mb == 0

    def test_double_stop_raises(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        run(sim, microvm.stop())
        with pytest.raises(SandboxError):
            run(sim, microvm.stop())


class TestMemoryWiring:
    def test_vm_boot_maps_kernel(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        layout = params.memory_layout("nodejs")
        assert microvm.space.region_rss_mb("kernel") == \
            pytest.approx(layout.kernel_mb)
        assert microvm.space.region_rss_mb("vmm") == \
            pytest.approx(layout.vmm_overhead_mb)

    def test_container_has_no_guest_kernel(self, sim, params, host):
        container = Container(sim, params, host, "nodejs")
        run(sim, container.boot())
        assert not container.space.has_region("kernel")

    def test_gvisor_maps_sentry(self, sim, params, host):
        gvisor = GVisorSandbox(sim, params, host, "nodejs")
        run(sim, gvisor.boot())
        # Sentry is a user-space kernel: present but smaller than a guest
        # kernel.
        assert gvisor.space.has_region("kernel")
        assert gvisor.space.region_rss_mb("kernel") < \
            params.memory_layout("nodejs").kernel_mb

    def test_isolate_is_tiny(self, sim, params, host):
        isolate = V8Isolate(sim, params, host, "nodejs")
        run(sim, isolate.boot())
        isolate.map_runtime_memory()
        assert isolate.rss_mb() < 5

    def test_full_stack_memory_near_170mb(self, sim, params, host, microvm):
        """§5.1 footnote: the average sandbox is ~170 MB."""
        run(sim, microvm.boot())
        microvm.map_runtime_memory()
        microvm.map_app_memory()
        microvm.map_jit_memory()
        layout = params.memory_layout("nodejs")
        guest = microvm.rss_mb() - layout.vmm_overhead_mb
        assert guest == pytest.approx(170, abs=10)

    def test_jit_memory_mapped_once(self, sim, params, host, microvm):
        run(sim, microvm.boot())
        microvm.map_runtime_memory()
        microvm.map_app_memory()
        microvm.map_jit_memory()
        microvm.map_jit_memory()  # idempotent
        assert microvm.space.has_region("jit_code")


class TestBootTimeOrdering:
    def test_cold_boot_ordering_across_mechanisms(self, sim, params, host):
        """Fig 6: Firecracker cold boot slowest, container fastest."""
        def boot_time(sandbox_cls):
            from repro.sim import Simulation
            local = Simulation()
            from repro.mem import HostMemory
            sandbox = sandbox_cls(local, params, HostMemory(params.host),
                                  "nodejs")
            run(local, sandbox.boot())
            return local.now

        microvm_ms = boot_time(MicroVM)
        container_ms = boot_time(Container)
        gvisor_ms = boot_time(GVisorSandbox)
        assert container_ms < gvisor_ms < microvm_ms


class TestIsolationLabels:
    def test_table1_isolation_levels(self, sim, params, host):
        assert "high" in MicroVM.isolation.lower()
        assert "medium" in Container.isolation.lower()
        assert "medium" in GVisorSandbox.isolation.lower()
        assert "low" in V8Isolate.isolation.lower()


class TestNaming:
    def test_two_simulations_name_their_first_container_alike(self, params):
        """Names come from the simulation, not from memory addresses, so
        traces that carry them replay byte-identically."""
        first = Container(Simulation(seed=1), params,
                          HostMemory(params.host), "nodejs")
        second = Container(Simulation(seed=1), params,
                           HostMemory(params.host), "nodejs")
        assert first.name == second.name == "container-1"

    def test_names_count_up_within_a_simulation(self, sim, params, host):
        names = [cls(sim, params, host, "nodejs").name
                 for cls in (Container, MicroVM, Container)]
        assert names == ["container-1", "microvm-2", "container-3"]

    def test_explicit_name_wins(self, sim, params, host, microvm):
        assert microvm.name == "vm-under-test"
        assert Container(sim, params, host, "nodejs").name == "container-1"
