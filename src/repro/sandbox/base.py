"""Sandbox base: lifecycle state machine, isolation levels, memory wiring.

A sandbox is the unit of isolation a serverless platform runs a function in
(Table 1 of the paper): a microVM (high isolation), a container (medium), a
gVisor container (medium, hardened), or a bare V8 isolate (low).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import CalibratedParameters, SandboxLatency
from repro.errors import SandboxError
from repro.mem.address_space import AddressSpace
from repro.mem.host_memory import HostMemory
from repro.storage.filesystem import IoPathModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation

# Isolation levels as compared in Table 1.
ISOLATION_HIGH_VM = "high (VM)"
ISOLATION_MEDIUM_CONTAINER = "medium (container)"
ISOLATION_LOW_RUNTIME = "low (runtime)"

STATE_CREATED = "created"
STATE_RUNNING = "running"
STATE_PAUSED = "paused"
STATE_STOPPED = "stopped"


class Sandbox:
    """Common lifecycle for all sandbox mechanisms."""

    mechanism = "abstract"
    isolation = ISOLATION_MEDIUM_CONTAINER

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 host_memory: HostMemory, language: str,
                 name: str = "") -> None:
        self.sim = sim
        self.params = params
        self.latency: SandboxLatency = params.latency(self.mechanism)
        self.layout = params.memory_layout(language)
        self.language = language
        if not name:
            sim.sandbox_serial += 1
            name = f"{self.mechanism}-{sim.sandbox_serial}"
        self.name = name
        self.io = IoPathModel(self.latency)
        self.space = AddressSpace(host_memory, name=self.name)
        self.state = STATE_CREATED
        self.boot_completed_at: Optional[float] = None

    # -- lifecycle (simulation generators) -------------------------------------
    def boot(self):
        """Cold-boot the sandbox shell: create + (guest OS) + platform init.

        Subclasses map their boot-time memory regions in `_map_boot_memory`.
        """
        if self.state != STATE_CREATED:
            raise SandboxError(f"boot() in state {self.state!r}")
        yield self.sim.timeout(self.latency.create_ms)
        self._map_shell_memory()
        if self.latency.os_boot_ms:
            yield self.sim.timeout(self.latency.os_boot_ms)
        self._map_boot_memory()
        if self.latency.init_ms:
            yield self.sim.timeout(self.latency.init_ms)
        self.state = STATE_RUNNING
        self.boot_completed_at = self.sim.now

    def pause(self):
        """Pause the sandbox, keeping it resident (warm pool)."""
        if self.state != STATE_RUNNING:
            raise SandboxError(f"pause() in state {self.state!r}")
        yield self.sim.timeout(self.latency.pause_ms)
        self.state = STATE_PAUSED

    def resume(self):
        """Resume a paused sandbox (a warm start)."""
        if self.state != STATE_PAUSED:
            raise SandboxError(f"resume() in state {self.state!r}")
        yield self.sim.timeout(self.latency.resume_paused_ms)
        self.state = STATE_RUNNING

    def stop(self):
        """Tear the sandbox down, releasing all memory."""
        if self.state == STATE_STOPPED:
            raise SandboxError(f"{self.name} already stopped")
        yield self.sim.timeout(self.latency.teardown_ms)
        self.space.unmap_all()
        self.state = STATE_STOPPED

    # -- memory wiring ----------------------------------------------------------
    def _map_shell_memory(self) -> None:
        """Host-side overhead of the VMM/shim process."""
        self.space.map_private("vmm", self.layout.vmm_overhead_mb, "vmm")

    def _map_boot_memory(self) -> None:
        """Guest memory mapped by OS boot; containers share the host kernel."""

    def map_runtime_memory(self) -> None:
        """Called when the language runtime process starts."""
        self.space.map_private("runtime", self.layout.runtime_mb, "runtime")

    def map_app_memory(self) -> None:
        """Called when the function code is loaded into the runtime."""
        self.space.map_private("app", self.layout.app_mb, "app")
        self.space.map_private("heap", self.layout.heap_after_load_mb, "heap")

    def map_jit_memory(self) -> None:
        """Called when JIT compilation first emits machine code."""
        if not self.space.has_region("jit_code"):
            self.space.map_private("jit_code", self.layout.jit_code_mb,
                                   "jit_code")

    # -- execution memory effects -------------------------------------------------
    def account_first_execution(self) -> None:
        """Dirty the pages one invocation touches (CoW-breaks if shared)."""
        layout = self.layout
        for region, fraction in (
                ("heap", layout.exec_dirty_heap_fraction),
                ("jit_code", layout.exec_dirty_jit_fraction),
                ("kernel", layout.exec_dirty_text_fraction),
                ("runtime", layout.exec_dirty_text_fraction),
                ("app", layout.exec_dirty_text_fraction)):
            if self.space.has_region(region):
                self.space.dirty_fraction(region, fraction)
        if self.space.has_region("heap"):
            self.space.grow_mb("heap", layout.exec_extra_anon_mb)

    def account_steady_state(self) -> None:
        """Dirty pages under sustained load (Fig 10's long-running VMs)."""
        layout = self.layout
        for region in ("kernel", "runtime", "app", "heap", "jit_code"):
            if self.space.has_region(region):
                self.space.dirty_fraction(
                    region, layout.steady_state_dirty_fraction)
        if self.space.has_region("heap"):
            self.space.grow_mb("heap", layout.steady_state_extra_anon_mb)

    # -- reporting ------------------------------------------------------------------
    def pss_mb(self) -> float:
        """Proportional set size of this sandbox (MiB)."""
        return self.space.pss_mb()

    def rss_mb(self) -> float:
        """Resident set size of this sandbox (MiB)."""
        return self.space.rss_mb()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state}>"
