"""Worker: a sandbox + language runtime + loaded app, ready to invoke.

Every platform ultimately drives one of these.  A worker is either built the
slow way (cold boot: sandbox boot, runtime launch, app load) or the fast way
(snapshot restore — see :mod:`repro.snapshot.restorer`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SandboxError
from repro.runtime.interpreter import (AppCode, ExecBreakdown,
                                       ExternalHandlers, LanguageRuntime)
from repro.runtime.ops import Program
from repro.sandbox.base import STATE_RUNNING, Sandbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class Worker:
    """One invocable function instance."""

    def __init__(self, sim: "Simulation", sandbox: Sandbox,
                 runtime: LanguageRuntime,
                 app: Optional[AppCode] = None) -> None:
        self.sim = sim
        self.sandbox = sandbox
        self.runtime = runtime
        self.app = app
        self.invocations = 0
        self.endpoint = None  # HostBridge endpoint, when network-connected
        self._exec_memory_accounted = False
        self._steady_state_accounted = False

    # -- construction paths ------------------------------------------------------
    def cold_start(self, app: AppCode):
        """Boot everything from scratch (a simulation generator)."""
        tracer = self.sim.tracer
        with tracer.span("cold-start", sandbox=self.sandbox.name):
            with tracer.span("sandbox-boot",
                             mechanism=self.sandbox.mechanism):
                yield from self.sandbox.boot()
            with tracer.span("runtime-launch",
                             language=self.runtime.language):
                yield from self.runtime.launch()
                self.sandbox.map_runtime_memory()
            with tracer.span("app-load", app=app.name):
                yield from self.runtime.load_app(app)
                self.sandbox.map_app_memory()
        self.app = app

    def load_app_only(self, app: AppCode):
        """Load the app into an already-launched runtime.

        Used after restoring an OS-stage snapshot: the runtime agent is up,
        only the function code still needs loading (Fig 11's "+VM-level OS
        snapshot" variant).
        """
        with self.sim.tracer.span("app-load", app=app.name):
            yield from self.runtime.load_app(app)
            self.sandbox.map_app_memory()
        self.app = app

    def force_jit(self):
        """Annotation-driven JIT of the loaded app (Fireworks install)."""
        jit_span = self.sim.tracer.span("force-jit")
        with jit_span:
            compile_ms = yield from self.runtime.force_jit_all()
            self.sandbox.map_jit_memory()
            jit_span.attrs["compile_ms"] = compile_ms
            jit_span.attrs["optimized"] = len(
                self.runtime.jit.optimized_functions())
        return compile_ms

    # -- invocation -----------------------------------------------------------------
    def invoke(self, prog: Program,
               handlers: Optional[ExternalHandlers] = None):
        """Run one invocation; returns the in-guest :class:`ExecBreakdown`."""
        if self.sandbox.state != STATE_RUNNING:
            raise SandboxError(
                f"invoke on {self.sandbox.name} in state "
                f"{self.sandbox.state!r}")
        breakdown = yield from self.runtime.run_program(
            prog, self.sandbox.io, handlers)
        if (not self.sandbox.space.has_region("jit_code")
                and self.runtime.jit.optimized_functions()):
            # First tier-up in this worker: the JIT emitted machine code.
            self.sandbox.map_jit_memory()
        if not self._exec_memory_accounted:
            self.sandbox.account_first_execution()
            self._exec_memory_accounted = True
        self.invocations += 1
        return breakdown

    def enter_steady_state(self) -> None:
        """Apply sustained-load memory churn (Fig 10 methodology)."""
        if not self._steady_state_accounted:
            self.sandbox.account_steady_state()
            self._steady_state_accounted = True

    # -- lifecycle passthrough ---------------------------------------------------
    def pause(self):
        """Pause the sandbox (warm pool)."""
        yield from self.sandbox.pause()

    def resume(self):
        """Resume a paused sandbox (warm start)."""
        with self.sim.tracer.span("resume", sandbox=self.sandbox.name):
            yield from self.sandbox.resume()

    def stop(self):
        """Tear the sandbox down, releasing memory."""
        yield from self.sandbox.stop()

    def pss_mb(self) -> float:
        """Proportional set size of the sandbox (MiB)."""
        return self.sandbox.pss_mb()

    def __repr__(self) -> str:
        app = self.app.name if self.app else "-"
        return f"<Worker {self.sandbox.name} app={app} n={self.invocations}>"
