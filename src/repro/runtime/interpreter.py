"""The language runtime running inside a sandbox.

A :class:`LanguageRuntime` models one runtime *process* (node / python):
launch, app load, and op-stream execution through the tiered JIT machinery.
Its JIT state is exportable/importable, which is how post-JIT snapshots carry
"already compiled" across restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.config import GuestMemoryLayout, RuntimeConfig
from repro.errors import RuntimeModelError
from repro.runtime.jit import FunctionJitState, JitEngine
from repro.runtime.ops import (Compute, DbGet, DbPut, DiskRead, DiskWrite,
                               InvokeNext, NetRecv, NetSend, Program, Respond)
from repro.storage.filesystem import IoPathModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


@dataclass(frozen=True)
class GuestFunction:
    """One guest-visible function of an app, as the JIT model sees it."""

    name: str
    code_units: float = 500.0
    jit_speedup: float = 3.0


@dataclass(frozen=True)
class AppCode:
    """The loadable unit: what `require()`/`import` brings into the runtime."""

    name: str
    language: str
    guest_functions: Tuple[GuestFunction, ...] = (GuestFunction("main"),)
    extra_load_ms: float = 0.0   # dependency-heavy apps load slower


@dataclass
class ExecBreakdown:
    """Where the time of one invocation went, inside the guest."""

    compute_ms: float = 0.0
    jit_compile_ms: float = 0.0
    deopt_ms: float = 0.0
    disk_ms: float = 0.0
    net_ms: float = 0.0
    db_ms: float = 0.0
    chain_ms: float = 0.0
    deopt_count: int = 0
    response_kb: float = 0.0

    @property
    def exec_ms(self) -> float:
        """In-guest execution time (paper Fig 6's "exec" bar)."""
        return (self.compute_ms + self.jit_compile_ms + self.deopt_ms
                + self.disk_ms + self.net_ms + self.db_ms)

    @property
    def total_ms(self) -> float:
        return self.exec_ms + self.chain_ms

    def merge(self, other: "ExecBreakdown") -> None:
        """Accumulate *other* into this breakdown (for chains)."""
        self.compute_ms += other.compute_ms
        self.jit_compile_ms += other.jit_compile_ms
        self.deopt_ms += other.deopt_ms
        self.disk_ms += other.disk_ms
        self.net_ms += other.net_ms
        self.db_ms += other.db_ms
        self.chain_ms += other.chain_ms
        self.deopt_count += other.deopt_count
        self.response_kb += other.response_kb


class ExternalHandlers:
    """Callbacks a platform provides for ops the runtime cannot resolve.

    Each handler is a *generator* (run on the simulation) returning the
    milliseconds the op took outside the guest; the default implementation
    models a standalone runtime with no platform attached.
    """

    def db_get(self, op: DbGet):
        """Handle a DbGet op; platform overrides this."""
        raise RuntimeModelError(
            f"no database handler attached (op: {op!r})")
        yield  # pragma: no cover - makes this a generator

    def db_put(self, op: DbPut):
        """Handle a DbPut op; platform overrides this."""
        raise RuntimeModelError(
            f"no database handler attached (op: {op!r})")
        yield  # pragma: no cover

    def invoke_next(self, op: InvokeNext):
        """Handle a chain InvokeNext op; platform overrides this."""
        raise RuntimeModelError(
            f"no chain handler attached (op: {op!r})")
        yield  # pragma: no cover

    def respond(self, op: Respond):
        """Handle the Respond op (response routing hook)."""
        # Default: the response just leaves through the sandbox NIC; the
        # platform may override to add gateway costs.
        return
        yield  # pragma: no cover


class LanguageRuntime:
    """One runtime process: launch -> load app -> execute programs."""

    STATE_INIT = "init"
    STATE_LAUNCHED = "launched"
    STATE_LOADED = "loaded"

    def __init__(self, sim: "Simulation", config: RuntimeConfig,
                 layout: GuestMemoryLayout) -> None:
        self.sim = sim
        self.config = config
        self.layout = layout
        self.jit = JitEngine(config)
        self.state = self.STATE_INIT
        self.app: Optional[AppCode] = None
        self.invocations = 0

    # -- lifecycle -----------------------------------------------------------
    def launch(self):
        """Start the runtime process (a simulation generator)."""
        if self.state != self.STATE_INIT:
            raise RuntimeModelError(
                f"launch() in state {self.state!r}")
        yield self.sim.timeout(self.config.launch_ms)
        self.state = self.STATE_LAUNCHED

    def load_app(self, app: AppCode):
        """`require()`/`import` the function code (a simulation generator)."""
        if self.state != self.STATE_LAUNCHED:
            raise RuntimeModelError(f"load_app() in state {self.state!r}")
        if app.language != self.config.name:
            raise RuntimeModelError(
                f"{self.config.name} runtime cannot load {app.language} app")
        yield self.sim.timeout(self.config.app_load_base_ms
                               + app.extra_load_ms)
        for function in app.guest_functions:
            self.jit.register(function.name, code_units=function.code_units,
                              jit_speedup=function.jit_speedup)
        self.app = app
        self.state = self.STATE_LOADED

    def force_jit_all(self):
        """Annotation-driven JIT of every guest function (install phase).

        This is ``__fireworks_jit()`` from Figure 3: invoke each annotated
        function once so Numba/V8 compiles it, paying the compile cost now.
        """
        if self.state != self.STATE_LOADED:
            raise RuntimeModelError(f"force_jit_all() in state {self.state!r}")
        total_ms = 0.0
        for name in self.jit.functions():
            total_ms += self.jit.force_compile(name)
        yield self.sim.timeout(total_ms)
        return total_ms

    # -- execution ------------------------------------------------------------
    def run_program(self, prog: Program, io: IoPathModel,
                    handlers: Optional[ExternalHandlers] = None):
        """Execute an op stream; returns an :class:`ExecBreakdown`.

        A simulation generator: compute flows through the JIT engine, I/O
        through the sandbox's I/O path model, and db/chain ops through the
        platform-provided *handlers*.
        """
        if self.state != self.STATE_LOADED:
            raise RuntimeModelError(f"run_program() in state {self.state!r}")
        handlers = handlers or ExternalHandlers()
        breakdown = ExecBreakdown()
        for op in prog:
            if isinstance(op, Compute):
                cost = self.jit.execute(op.function, op.units, op.arg_shape)
                if cost.deopt_ms > 0:
                    breakdown.deopt_count += 1
                breakdown.compute_ms += cost.exec_ms
                breakdown.jit_compile_ms += cost.jit_compile_ms
                breakdown.deopt_ms += cost.deopt_ms
                op_started = self.sim.now
                yield self.sim.timeout(cost.total_ms)
                self._record_jit_spans(op.function, op_started, cost)
            elif isinstance(op, DiskRead):
                duration = op.times * io.disk_read_ms(op.kb)
                breakdown.disk_ms += duration
                yield self.sim.timeout(duration)
            elif isinstance(op, DiskWrite):
                duration = op.times * io.disk_write_ms(op.kb)
                breakdown.disk_ms += duration
                yield self.sim.timeout(duration)
            elif isinstance(op, NetSend):
                duration = io.net_send_ms(op.kb)
                breakdown.net_ms += duration
                yield self.sim.timeout(duration)
            elif isinstance(op, NetRecv):
                duration = io.net_recv_ms(op.kb)
                breakdown.net_ms += duration
                yield self.sim.timeout(duration)
            elif isinstance(op, Respond):
                duration = io.net_send_ms(op.kb)
                breakdown.net_ms += duration
                breakdown.response_kb += op.kb
                yield self.sim.timeout(duration)
                yield from handlers.respond(op)
            elif isinstance(op, DbGet):
                started = self.sim.now
                yield from handlers.db_get(op)
                breakdown.db_ms += self.sim.now - started
            elif isinstance(op, DbPut):
                started = self.sim.now
                yield from handlers.db_put(op)
                breakdown.db_ms += self.sim.now - started
            elif isinstance(op, InvokeNext):
                started = self.sim.now
                yield from handlers.invoke_next(op)
                breakdown.chain_ms += self.sim.now - started
            else:
                raise RuntimeModelError(f"unknown op {op!r}")
        self.invocations += 1
        return breakdown

    def _record_jit_spans(self, function: str, op_started: float,
                          cost) -> None:
        # Retrospective spans: the JIT's compile/deopt share of a compute
        # op happens inside the op's (already elapsed) timeout window; a
        # deopt precedes the recompile (jit.py's cost model order).
        # Splitting the timeout itself would perturb event ordering, so
        # the spans are recorded after the fact on the known sub-windows.
        tracer = self.sim.tracer
        cursor = op_started
        if cost.deopt_ms > 0:
            end = min(cursor + cost.deopt_ms, self.sim.now)
            tracer.add_span("deopt", cursor, end, function=function)
            cursor = end
        if cost.jit_compile_ms > 0:
            end = min(cursor + cost.jit_compile_ms, self.sim.now)
            tracer.add_span("jit-compile", cursor, end, function=function,
                            tier=self.jit.state(function).tier)

    # -- snapshot support -----------------------------------------------------
    def export_jit_state(self) -> Dict[str, FunctionJitState]:
        """Deep copy of JIT tier state, for the snapshot image."""
        return self.jit.export_state()


@dataclass(frozen=True)
class RuntimeImage:
    """A runtime process as a snapshot holds it.

    Restoring guest memory restores the process mid-flight, so
    :meth:`restore` neither launches nor loads: it builds a
    ``runtime_cls`` process on *config* and *layout* in *state*, with
    *app* loaded and each guest function's JIT state copied field for
    field.  Snapshot clones and Catalyzer's sforks are built here.
    """

    runtime_cls: type
    config: RuntimeConfig
    layout: GuestMemoryLayout
    state: str
    app: Optional[AppCode] = None
    jit_state: Mapping[str, FunctionJitState] = field(default_factory=dict)

    @classmethod
    def capture(cls, runtime: LanguageRuntime) -> "RuntimeImage":
        """The image of *runtime* now (its JIT state deep-copied)."""
        return cls(type(runtime), runtime.config, runtime.layout,
                   runtime.state, runtime.app, runtime.export_jit_state())

    def restore(self, sim: "Simulation") -> LanguageRuntime:
        """A new process in the imaged state, on *sim*."""
        runtime = self.runtime_cls.__new__(self.runtime_cls)
        LanguageRuntime.__init__(runtime, sim, self.config, self.layout)
        runtime.state = self.state
        runtime.app = self.app
        runtime.jit.import_state(self.jit_state)
        return runtime
