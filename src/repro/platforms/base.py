"""The serverless platform control plane (Figure 1) shared by all backends.

``ServerlessPlatform`` implements the frontend flow — gateway, controller,
message bus — and the invocation bookkeeping (latency breakdown into
*start-up*, *exec*, and *others*, exactly the bars of Figs 6/7/9).  Each
backend (OpenWhisk, Firecracker, gVisor, Fireworks) supplies its own worker
acquisition strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.chaos.plan import KIND_DB_TIMEOUT
from repro.config import CalibratedParameters
from repro.db.couchdb import CouchServer
from repro.errors import (BusPartitionedError, ExecutionLostError,
                          FunctionNotFoundError, HostDownError,
                          InjectedFault, InvocationFailedError,
                          InvocationSheddedError, PlatformError, ReproError,
                          RetryableChaosError, SimulationError, TraceError)
from repro.mem.host_memory import HostMemory
from repro.net.bridge import HostBridge
from repro.platforms.bus import MessageBus
from repro.platforms.ledger import InvocationLedger
from repro.runtime.interpreter import ExecBreakdown, ExternalHandlers
from repro.runtime.ops import DbGet, DbPut, InvokeNext, Respond
from repro.sandbox.worker import Worker
from repro.trace import Span, phase_breakdown
from repro.workloads.base import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Cluster, Host
    from repro.sim.kernel import Simulation

MODE_AUTO = "auto"
MODE_COLD = "cold"
MODE_WARM = "warm"
MODE_SNAPSHOT = "snapshot"


def _if_kept(span: Span) -> Optional[Span]:
    """*span* if the tracer keeps its tree, else ``None``: a finished
    invocation must not pin a tree the tracer dropped."""
    return span if span.kept else None


@dataclass
class InvocationRecord:
    """End-to-end accounting of one invocation (one bar of Fig 6/7/9)."""

    function: str
    platform: str
    mode: str                     # cold | warm | snapshot
    submitted_ms: float
    host_id: int = 0             # which cluster host served it
    startup_ms: float = 0.0      # sandbox acquisition until code runs
    exec_ms: float = 0.0         # in-guest program execution
    other_ms: float = 0.0        # gateway, dispatch, params, response
    queue_wait_ms: float = 0.0   # waiting for a host core (burst benches);
    #                              also included in other_ms
    guest: Optional[ExecBreakdown] = None
    children: List["InvocationRecord"] = field(default_factory=list)
    #: The worker that served the invocation, only while the platform
    #: retains workers (``retain_workers``); otherwise ``None``, so a
    #: finished invocation never pins its retired sandbox.
    worker: Optional[Worker] = None
    completed_ms: Optional[float] = None  # wall clock when invoke() returned
    trace_id: str = ""                    # id of the invocation's trace
    #: The "invoke" span if the tracer kept its tree (the first
    #: ``KEPT_ROOTS`` roots of a simulation), else ``None``.
    span: Optional[Span] = None
    attempts: int = 1                     # dispatch attempts (chaos retries)
    #: Chain-executor mode: guest ``InvokeNext`` ops are *skipped*
    #: instead of dispatched inline — the executor drives the DAG's edges
    #: itself, which is what lets backends without guest-chain support
    #: (§5.3) run chains at all.
    defer_hops: bool = False

    @property
    def total_ms(self) -> float:
        """End-to-end latency of this record's own work (no double count:
        children's time is *not* added — it already elapsed inside exec's
        wall clock only if the chain was synchronous, and we track chain
        time separately)."""
        return self.startup_ms + self.exec_ms + self.other_ms

    @property
    def end_to_end_ms(self) -> float:
        """Submission-to-response wall latency (includes chain hops).

        A pure wall delta on the DES clock — bitwise-equal to the duration
        of the invocation's root span, which is the invariant
        :func:`repro.trace.verify_invocation` asserts.
        """
        if self.completed_ms is None:
            return 0.0
        return self.completed_ms - self.submitted_ms

    # -- chain aggregates (Fig 9 sums the whole chain) -------------------------
    def chain_startup_ms(self) -> float:
        """Start-up summed over this record and its chain children."""
        return self.startup_ms + sum(c.chain_startup_ms()
                                     for c in self.children)

    def chain_exec_ms(self) -> float:
        """Exec time summed over the whole chain."""
        return self.exec_ms + sum(c.chain_exec_ms() for c in self.children)

    def chain_other_ms(self) -> float:
        """Control-plane time summed over the whole chain."""
        return self.other_ms + sum(c.chain_other_ms() for c in self.children)

    def chain_total_ms(self) -> float:
        """End-to-end chain latency (all phases, all hops)."""
        return (self.chain_startup_ms() + self.chain_exec_ms()
                + self.chain_other_ms())

    def chain_records(self) -> List["InvocationRecord"]:
        """This record plus all chain descendants, pre-order."""
        records = [self]
        for child in self.children:
            records.extend(child.chain_records())
        return records


class _PlatformHandlers(ExternalHandlers):
    """Routes db/chain ops from the guest back through the platform.

    Database requests can time out (an armed ``db-timeout`` budget): the
    guest SDK retries with a short backoff, surfacing the wait as a
    ``retry`` span.
    """

    def __init__(self, platform: "ServerlessPlatform", worker: Worker,
                 record: InvocationRecord) -> None:
        self.platform = platform
        self.worker = worker
        self.record = record

    def _check_db_fault(self, database: str) -> None:
        if self.platform.chaos is not None:
            self.platform.chaos.check(KIND_DB_TIMEOUT, database)

    def _db_backoff(self, attempt: int):
        with self.platform.sim.tracer.span("retry", kind="retry",
                                           target="db", attempt=attempt):
            yield self.platform.sim.timeout(
                self.platform.DB_RETRY_BACKOFF_MS)

    def db_get(self, op: DbGet):
        sim = self.platform.sim
        database = self.platform.couch.database(op.database)
        io = self.worker.sandbox.io
        for attempt in range(1, self.platform.MAX_DB_ATTEMPTS + 1):
            try:
                with sim.tracer.span("db-get", database=op.database,
                                     attempt=attempt):
                    yield sim.timeout(io.net_send_ms(0.3))   # request out
                    self._check_db_fault(op.database)        # request timeout
                    yield sim.timeout(
                        database.latency.get_cost(op.doc_kb))
                    yield sim.timeout(io.net_recv_ms(op.doc_kb))  # doc back
                return
            except InjectedFault as fault:
                if fault.kind != KIND_DB_TIMEOUT or \
                        attempt == self.platform.MAX_DB_ATTEMPTS:
                    raise
                yield from self._db_backoff(attempt)

    def db_put(self, op: DbPut):
        sim = self.platform.sim
        database = self.platform.couch.database(op.database)
        io = self.worker.sandbox.io
        for attempt in range(1, self.platform.MAX_DB_ATTEMPTS + 1):
            try:
                with sim.tracer.span("db-put", database=op.database,
                                     attempt=attempt):
                    yield sim.timeout(io.net_send_ms(op.doc_kb))  # doc out
                    self._check_db_fault(op.database)        # request timeout
                    yield sim.timeout(
                        database.latency.put_cost(op.doc_kb))
                    # The write is real: a fresh document lands in the
                    # database.
                    database.put(
                        f"{self.record.function}-{database.last_seq + 1}",
                        {"source": self.record.function, "at_ms": sim.now})
                    yield sim.timeout(io.net_recv_ms(0.2))   # ack back
                break
            except InjectedFault as fault:
                if fault.kind != KIND_DB_TIMEOUT or \
                        attempt == self.platform.MAX_DB_ATTEMPTS:
                    raise
                yield from self._db_backoff(attempt)
        self.platform.note_db_write(op.database)

    def invoke_next(self, op: InvokeNext):
        if self.record.defer_hops:
            # Chain-executor mode: the executor dispatches the DAG's
            # invoke edges itself (paying the real bus/frontend per
            # stage); the guest's hop costs nothing and works on every
            # backend.
            return
        if not self.platform.supports_chains:
            raise PlatformError(
                f"{self.platform.name} cannot process a chain of serverless "
                "functions (§5.3: only OpenWhisk and Fireworks can)")
        child = yield from self.platform.invoke(op.function,
                                                payload={"kb": op.payload_kb})
        self.record.children.append(child)

    def respond(self, op: Respond):
        # Response already left through the guest NIC; platform-side routing
        # cost is charged by invoke() as "other".
        del op
        return
        yield  # pragma: no cover


class ServerlessPlatform:
    """Base class: registry + frontend + invocation accounting."""

    name = "abstract"
    isolation_label = "?"
    performance_label = "?"
    memory_label = "?"
    supports_chains = False

    #: How often the guest SDK retries a timed-out database request.
    MAX_DB_ATTEMPTS = 3
    DB_RETRY_BACKOFF_MS = 0.5

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 cluster: Optional["Cluster"] = None) -> None:
        # Imported here, not at module scope: repro.cluster.host uses the
        # warm pool and scheduler from this package.
        from repro.cluster.host import Cluster
        self.sim = sim
        self.params = params
        # Without a cluster, one implicit host: the paper's evaluation
        # setup.
        self.cluster = (cluster if cluster is not None
                        else Cluster(sim, params, n_hosts=1))
        self.bus = MessageBus()
        self.couch = CouchServer()
        self.retain_workers = False
        self.local_restores = 0      # snapshot found on the chosen host
        self.cross_host_transfers = 0  # snapshot copied over the network
        self.streamed_transfers = 0  # transfers that shipped the working set
        #                              first, residual in background
        self.transfer_foreground_mb = 0.0  # bytes moved on the critical path
        self.transfer_background_mb = 0.0  # bytes streamed in the background
        # Chaos: a HostFailureController attaches itself here; with no
        # controller the invoke path is byte-identical to the pre-chaos one
        # (single attempt, no containment, no extra RNG draws).
        self.chaos = None
        self.retries = 0             # invoke-level retry spans emitted
        self.failovers = 0           # attempts re-dispatched off a dead host
        # Serving layer (repro.autoscale): a WarmPoolAutoscaler attaches
        # itself here; a shed is an outcome of its own, like a failure.
        self.autoscaler = None
        self.active_workers: List[Worker] = []
        # Every invocation ends as one fold into the ledger plus its span
        # tree, which the tracer keeps for a simulation's first
        # ``KEPT_ROOTS`` roots.
        self.ledger = InvocationLedger()
        self._specs: Dict[str, FunctionSpec] = {}
        self._db_triggers: Dict[str, List[Tuple[str, Any]]] = {}
        self._invocation_seq = 0

    # -- single-host views (host 0 is the only host by default) ------------------
    @property
    def host_memory(self) -> HostMemory:
        return self.cluster.hosts[0].memory

    @property
    def bridge(self) -> HostBridge:
        return self.cluster.hosts[0].bridge

    @property
    def host_cpu(self):
        return self.cluster.hosts[0].cpu

    # -- registry ------------------------------------------------------------------
    def install(self, spec: FunctionSpec):
        """Install *spec* (a simulation generator).  Subclasses extend.

        Backend state (snapshots, templates) is seeded on the function's
        *home host*.  A failed backend install rolls the registration back
        so the install can be retried.
        """
        if spec.name in self._specs:
            raise PlatformError(f"function {spec.name!r} already installed")
        self._specs[spec.name] = spec
        try:
            yield from self._install_backend(
                spec, self.cluster.home_host(spec.name))
        except BaseException:
            self._specs.pop(spec.name, None)
            raise

    def _install_backend(self, spec: FunctionSpec, host: Host):
        """Backend-specific installation work.  Default: registration only."""
        del spec, host
        return
        yield  # pragma: no cover

    def spec(self, name: str) -> FunctionSpec:
        """The installed FunctionSpec for *name*; 404s otherwise."""
        if name not in self._specs:
            raise FunctionNotFoundError(
                f"{self.name}: function {name!r} is not installed")
        return self._specs[name]

    def installed_functions(self) -> Tuple[str, ...]:
        """Names of every installed function."""
        return tuple(self._specs)

    # -- triggers (Cloud trigger box of Figure 1) -------------------------------
    def register_db_trigger(self, database: str, function: str,
                            runner: Optional[Any] = None) -> None:
        """Invoke *function* whenever *database* changes (Fig 8(b)).

        *runner*, if given, is a generator factory ``runner(function,
        database)`` that replaces the default single-invocation firing —
        the chain executor registers one so a database write drives a
        whole DAG segment (deferring guest hops) instead of a bare
        invoke, which is what lets backends without guest-chain support
        serve trigger-driven chains.
        """
        self.spec(function)  # must exist
        self._db_triggers.setdefault(database, []).append((function, runner))

    def note_db_write(self, database: str) -> None:
        """Called by the db handler after a write; fires triggers async."""
        for function, runner in self._db_triggers.get(database, ()):
            gen = (runner(function, database) if runner is not None
                   else self._fire_trigger(function, database))
            self.sim.process(gen, name=f"trigger:{function}")

    def _fire_trigger(self, function: str, database: str):
        """One trigger firing (a detached process, its own trace).

        A firing that exhausts its chaos-retry budget (e.g. the bus stays
        partitioned) is already counted as failed in the platform's
        ledger — it is swallowed here so a dead trigger surfaces as a
        failed *result*, never as a crashed drain.  The retrospective
        ``db-trigger`` span ties the firing back to the database write for
        the trace validator.
        """
        start_ms = self.sim.now
        status, trace_id = "ok", ""
        try:
            record = yield from self.invoke(function)
            trace_id = record.trace_id
        except InvocationFailedError as error:
            status, trace_id = "failed", error.trace_id
            record = None
        self.sim.tracer.add_span(
            "db-trigger", start_ms, self.sim.now, kind="db-trigger",
            trace_id=f"{trace_id}-trigger" if trace_id else "",
            database=database, function=function, status=status,
            invocation=trace_id)
        return record

    # -- invocation -------------------------------------------------------------------
    def invoke(self, name: str, payload: Optional[Dict[str, Any]] = None,
               mode: str = MODE_AUTO,
               locality_hint: Optional[Any] = None,
               defer_hops: bool = False):
        """Invoke a function end-to-end (a simulation generator).

        Returns the :class:`InvocationRecord` with the full latency
        breakdown.  ``mode`` forces a cold or warm path where the backend
        distinguishes them.

        With a chaos controller attached (``self.chaos``), retryable
        infrastructure failures (dead host, bus partition, no live host)
        are retried with exponential backoff up to
        ``params.cluster.retry_max_attempts`` total tries; an attempt that
        follows a :class:`HostDownError` is marked with a zero-width
        ``failover`` span.  An invocation that exhausts its budget (or
        hits an unretryable fault) is counted in ``ledger.failed`` and
        surfaces as a :class:`InvocationFailedError` rather than crashing
        the experiment.  Without a controller the path is unchanged: one
        attempt, failures propagate as before.

        *locality_hint* (``host -> bool``) widens the placement locality
        probe — the chain executor marks the hosts that served a stage's
        predecessors so chain-aware policies can co-locate successive
        stages.  *defer_hops* skips guest ``InvokeNext`` ops instead of
        dispatching them inline (chain-executor mode).
        Both default off, leaving the golden invocation path untouched.
        """
        spec = self.spec(name)
        if self.autoscaler is not None:
            # Feed the scaler's arrival history (pure bookkeeping: no
            # sim events, no RNG draws).
            self.autoscaler.observe_arrival(name, self.sim.now)
        tracer = self.sim.tracer
        self._invocation_seq += 1
        record = InvocationRecord(
            function=name, platform=self.name, mode=mode,
            submitted_ms=self.sim.now, defer_hops=defer_hops)
        invoke_span = tracer.span(
            "invoke", kind="invoke",
            trace_id=f"{self.name}-inv{self._invocation_seq}",
            function=name, platform=self.name)
        cfg = self.params.cluster
        max_attempts = cfg.retry_max_attempts if self.chaos is not None else 1

        try:
            with invoke_span:
                attempt = 1
                failed_from: Optional[int] = None
                while True:
                    try:
                        if failed_from is not None:
                            # Zero-width marker: this attempt re-dispatches
                            # a request whose previous host died.
                            with tracer.span("failover", kind="failover",
                                             from_host=failed_from,
                                             attempt=attempt):
                                pass
                            self.failovers += 1
                            failed_from = None
                        yield from self._invoke_attempt(
                            spec, mode, payload, record, locality_hint)
                        break
                    except RetryableChaosError as error:
                        if attempt >= max_attempts:
                            raise
                        delay_ms = self._retry_backoff_ms(attempt)
                        with tracer.span("retry", kind="retry",
                                         target="invoke", attempt=attempt,
                                         error=type(error).__name__):
                            yield self.sim.timeout(delay_ms)
                        self.retries += 1
                        if isinstance(error, HostDownError):
                            failed_from = error.host_id
                        attempt += 1
                        record.attempts = attempt
        except InvocationSheddedError:
            # Overload protection, not a failure: count the shed and let
            # the caller observe the 429.
            self.ledger.shed += 1
            raise
        except ReproError as error:
            if self.chaos is None or \
                    isinstance(error, (TraceError, SimulationError)):
                raise
            self.ledger.failed += 1
            raise InvocationFailedError(
                name, record.attempts, str(error) or type(error).__name__,
                invoke_span.trace_id) from error

        # The record's breakdown is *derived* from the live span tree, so
        # the Fig 6/7 bars and the trace cannot disagree (repro.trace.verify)
        # -- even for a tree the tracer drops once this invocation ends.
        record.completed_ms = self.sim.now
        record.trace_id = invoke_span.trace_id
        record.span = _if_kept(invoke_span)
        breakdown = phase_breakdown(invoke_span)
        record.startup_ms = breakdown.startup_ms
        record.exec_ms = breakdown.exec_ms
        record.other_ms = breakdown.other_ms
        record.queue_wait_ms = breakdown.queue_ms
        self.ledger.fold(record)
        return record

    def _invoke_attempt(self, spec: FunctionSpec, mode: str,
                        payload: Optional[Dict[str, Any]],
                        record: InvocationRecord,
                        locality_hint: Optional[Any] = None):
        """One dispatch attempt (a simulation generator).

        Chaos failures surface at *stage boundaries*: a host that dies
        mid-stage is observed when the stage completes, which keeps every
        stage span well formed (docs/chaos.md).
        """
        tracer = self.sim.tracer

        # Frontend: gateway relays, controller dispatches over the bus
        # (modeled as a cost only).
        if self.chaos is not None and \
                self.chaos.bus_partitioned(self.sim.now):
            raise BusPartitionedError(
                f"message bus unreachable at {self.sim.now:.0f}ms")
        cp = self.params.control_plane
        frontend_ms = (cp.gateway_route_ms + cp.controller_dispatch_ms
                       + cp.bus_publish_ms)
        with tracer.span("frontend", phase="other"):
            yield self.sim.timeout(frontend_ms)

        # Placement: the controller picks a backend host (Figure 1:
        # "relays it to one of the backend servers").  The decision is
        # instantaneous — the span records *where* and *why*, not time.
        # Down hosts advertise no room, so every policy fails over here.
        serving = self.params.autoscale.enabled
        placement_span = tracer.span("placement", kind="placement",
                                     policy=self.cluster.placement.name,
                                     source=self.cluster.placement.source)
        if locality_hint is None:
            probe = lambda h: self._host_affinity(h, spec.name)  # noqa: E731
        else:
            # Chain-executor hint: a predecessor stage's host counts as
            # local even without resident function state, so chain-aware
            # policies can keep a chain on one machine.
            probe = lambda h: (self._host_affinity(h, spec.name)  # noqa: E731
                               or bool(locality_hint(h)))
        with placement_span:
            if serving:
                # Serving layer: full clusters queue instead of bouncing.
                host = self.cluster.place_queued(spec.name, locality=probe)
            else:
                host = self.cluster.place(spec.name, locality=probe)
            placement_span.attrs["host"] = host.host_id
        record.host_id = host.host_id

        if serving:
            # Admission: wait in the host's bounded FIFO for a capacity
            # slot, or get shed (InvocationSheddedError).  Zero-width
            # when the host has room and nobody is queued ahead.
            if host.admission is None:
                host.assign(spec.name)   # legacy cluster, no queue
            else:
                admission_span = tracer.span("admission", phase="queue",
                                             host=host.host_id)
                with admission_span:
                    wait_ms = yield from host.admission.admit(spec.name)
                    admission_span.attrs["wait_ms"] = wait_ms
                    admission_span.attrs["depth"] = host.admission.depth

        cpu_claim = worker = None
        try:
            # An injected host degradation slows dispatch onto this host.
            penalty_ms = host.degradation_penalty_ms(self.sim.now)
            if penalty_ms > 0.0:
                with tracer.span("degraded", kind="degraded",
                                 host=host.host_id, penalty_ms=penalty_ms):
                    yield self.sim.timeout(penalty_ms)

            # Under burst load the chosen host's core pool gates
            # everything past placement: claim a core for the sandbox
            # work + execution.
            if host.cpu is not None:
                with tracer.span("queue", phase="queue"):
                    cpu_claim = yield from host.cpu.acquire()
                if host.down:
                    raise HostDownError(host.host_id, "queue")

            # Backend: acquire a worker (cold boot / warm pool / snapshot)
            # on the chosen host.  Time in this span is start-up, except
            # spans explicitly tagged phase="other" (parameter publish).
            acquire_span = tracer.span("acquire", kind="acquire")
            with acquire_span:
                worker, mode_used, _extra_other_ms = \
                    yield from self._acquire_worker(spec, mode, host)
                acquire_span.attrs["mode"] = mode_used
            if host.down:
                # The worker came up on a host that died meanwhile.
                raise HostDownError(host.host_id, "acquire")
            record.mode = mode_used
            if self.retain_workers:
                record.worker = worker

            # Execute the guest program.  Nested invoke spans (chain hops)
            # are accounted on the child records, not here.
            handlers = self._make_handlers(worker, record)
            exec_span = tracer.span("exec", phase="exec")
            with exec_span:
                guest = yield from worker.invoke(
                    spec.program(payload), handlers)
                exec_span.attrs["deopts"] = guest.deopt_count
                exec_span.attrs["jit_optimized"] = len(
                    worker.runtime.jit.optimized_functions())
                # Pages this clone CoW-broke (its private/dirty MiB).
                exec_span.attrs["uss_mb"] = worker.sandbox.space.uss_mb()
            record.guest = guest
            # The guest is done with its core.  (A failure before this
            # point discards the worker first, then frees the core.)
            if cpu_claim is not None:
                host.cpu.release(cpu_claim)
                cpu_claim = None

            if host.down:
                # The function ran, then the host died before the response
                # was accounted.  NOT retryable: at-most-once billing.
                raise ExecutionLostError(host.host_id)

            with tracer.span("release", kind="release"):
                yield from self._release_worker(spec, worker, host)
            if self.retain_workers and worker not in self.active_workers:
                self.active_workers.append(worker)
        except Exception:
            # Whatever stopped the invocation (its host died, its guest
            # raised), the worker it acquired serves nobody else.
            if worker is not None:
                self.discard_worker(worker, host, label="lost")
            raise
        finally:
            if cpu_claim is not None:
                host.cpu.release(cpu_claim)
            self.cluster.finish(host)

    def _retry_backoff_ms(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1``: capped exponential with
        deterministic, seed-derived jitter (the ``chaos-retry`` stream is
        only drawn on retries, so golden traces never see it)."""
        cfg = self.params.cluster
        delay = min(cfg.retry_cap_ms,
                    cfg.retry_base_ms
                    * cfg.retry_backoff_factor ** (attempt - 1))
        if cfg.retry_jitter_frac > 0.0:
            unit = self.sim.rng.stream("chaos-retry").random()
            delay *= 1.0 + cfg.retry_jitter_frac * (2.0 * unit - 1.0)
        return delay

    # -- chaos hooks -----------------------------------------------------------------
    def on_chaos_attached(self) -> None:
        """Called once when a chaos controller binds to this platform.
        Backends that cache per-host helpers override this to wire the
        controller into them (e.g. restorers honouring slow-restore)."""

    def on_host_crash(self, host: Host) -> None:
        """Called by the chaos controller after *host* is marked down, its
        warm pool drained through :meth:`discard_worker` and its snapshot
        store cleared.  Backends drop any other per-host state that died
        with the machine (e.g. Catalyzer templates)."""
        del host

    # -- autoscaler hooks (repro.autoscale) --------------------------------------
    def provision_warm_on(self, spec: FunctionSpec, host: Host):
        """Autoscaler hook (a simulation generator): boot one warm worker
        for *spec* on *host*, off the invoke critical path.

        Returns a :class:`~repro.platforms.pooling.WarmEntry` for the
        scaler to stamp with a TTL and park in ``host.pool`` — or ``None``
        when the backend has nothing useful to pre-provision (the default;
        e.g. Catalyzer's templates are already resident on every host).
        """
        del spec, host
        return None
        yield  # pragma: no cover - makes this function a generator

    def discard_worker(self, worker: Worker, host: Host,
                       label: str) -> None:
        """Tear *worker* down on *host*: the one way a worker dies, after
        its invocation, out of a warm pool (TTL expiry, crashed host, a
        host that died while it booted), or when the invocation it served
        failed (its host died, its guest raised, its fetch failed).

        Runs detached: teardown cost is off every request's critical path.
        Backends whose workers hold more than their sandbox override this.
        """
        del host
        self.sim.process(worker.stop(),
                         name=f"{label}:{worker.sandbox.name}")

    def reap_idle(self) -> int:
        """Periodic reaper: sweep every host's warm pool and tear down the
        expired workers now.  Returns how many were reclaimed."""
        reclaimed = 0
        for host in self.cluster.hosts:
            host.pool.expire_all(self.sim.now)
            expired = host.pool.drain_expired()
            for entry in expired:
                self.discard_worker(entry.worker, host, label="reap")
            reclaimed += len(expired)
        return reclaimed

    def _make_handlers(self, worker: Worker,
                       record: InvocationRecord) -> ExternalHandlers:
        return _PlatformHandlers(self, worker, record)

    # -- backend hooks ---------------------------------------------------------------
    def _acquire_worker(self, spec: FunctionSpec, mode: str, host: Host):
        """Yield-based hook returning ``(worker, mode_used, other_ms)``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _release_worker(self, spec: FunctionSpec, worker: Worker,
                        host: Host):
        """What happens to the worker after the invocation."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _host_affinity(self, host: Host, function: str) -> bool:
        """Whether *host* already holds state (warm sandbox, snapshot)
        for *function* — the ``snapshot-locality`` policy's predicate.
        Default: a live warm-pool entry."""
        return host.pool.size(function, self.sim.now) > 0

    def _transfer_working_set_mb(self, image) -> Optional[float]:
        """Recorded working-set bytes a streaming transfer ships first, or
        ``None`` when nothing is recorded (full up-front transfer).
        Backends with a working-set recorder override this."""
        del image
        return None

    def _fetch_image_to_host(self, key: str, host: Host):
        """Make the snapshot under *key* resident on *host* (a generator).

        A local hit is free; otherwise the image is copied from the
        lowest-numbered host that has it, paying the modeled network
        transfer (``params.cluster``) as a ``snapshot-transfer`` span —
        the cost the ``snapshot-locality`` policy exists to avoid.

        With ``cluster.stream_transfers`` on and a recorded working set,
        only the working-set chunks move on the critical path (a
        ``transfer-working-set`` child span); the residual chunks stream in
        a detached background process at the same modeled bandwidth, so an
        off-home placement is runnable as soon as its working set lands.

        Concurrency and liveness are re-checked *after* the transfer wait:
        a concurrent transfer that landed the same key first wins (no
        double count, no clobbered replica), and a destination that died
        mid-transfer surfaces :class:`HostDownError` instead of seeding a
        crashed host's store with a replica that would survive recovery.
        """
        if host.store.contains(key):
            self.local_restores += 1
            return host.store.get(key)
        sources = [other for other in self.cluster.hosts
                   if other is not host and other.store.contains(key)]
        if not sources:
            # Nobody has it: surface the store's own miss.
            return host.store.get(key)
        source = min(sources, key=lambda other: other.host_id)
        image = source.store.get(key)
        cfg = self.params.cluster
        working_set_mb = (self._transfer_working_set_mb(image)
                          if cfg.stream_transfers else None)
        streamed = (working_set_mb is not None
                    and working_set_mb < image.size_mb)
        transfer_span = self.sim.tracer.span(
            "snapshot-transfer", kind="transfer", key=key,
            src=source.host_id, dst=host.host_id, streamed=streamed)
        with transfer_span:
            if streamed:
                with self.sim.tracer.span(
                        "transfer-working-set", kind="transfer-working-set",
                        mb=working_set_mb):
                    yield self.sim.timeout(
                        cfg.snapshot_transfer_base_ms
                        + working_set_mb * cfg.snapshot_transfer_per_mb_ms)
                foreground_mb = working_set_mb
            else:
                yield self.sim.timeout(
                    cfg.snapshot_transfer_base_ms
                    + image.size_mb * cfg.snapshot_transfer_per_mb_ms)
                foreground_mb = image.size_mb
            transfer_span.attrs["size_mb"] = image.size_mb
            transfer_span.attrs["foreground_mb"] = foreground_mb
        # Re-check the world after the wait: the transfer raced with
        # whatever else happened on *host* during it.
        if host.down:
            raise HostDownError(host.host_id, "snapshot-transfer")
        if host.store.contains(key):
            # A concurrent transfer already landed this key here; keep the
            # landed replica instead of clobbering it and double counting.
            return host.store.get(key)
        replica = image.clone_for_transfer()
        self.cross_host_transfers += 1
        self.transfer_foreground_mb += foreground_mb
        if streamed:
            residual_mb = image.size_mb - working_set_mb
            host.store.put(key, replica, resident_mb=working_set_mb)
            self.streamed_transfers += 1
            self.sim.process(
                self._stream_residual(key, host, residual_mb),
                name=f"stream-residual:{key}@h{host.host_id}")
        else:
            host.store.put(key, replica)
        return replica

    def _stream_residual(self, key: str, host: Host, residual_mb: float):
        """Background tail of a streaming transfer: land the chunks outside
        the working set at the modeled bandwidth (a detached process, so it
        is off every request's critical path)."""
        with self.sim.tracer.span(
                "transfer-residual", kind="transfer-residual", key=key,
                dst=host.host_id, mb=residual_mb):
            yield self.sim.timeout(
                residual_mb * self.params.cluster.snapshot_transfer_per_mb_ms)
        if host.down or not host.store.contains(key):
            return  # crashed or evicted mid-stream: nothing left to land
        host.store.extend_resident(key, residual_mb)
        self.transfer_background_mb += residual_mb

    # -- reporting ----------------------------------------------------------------
    def table1_row(self) -> Dict[str, str]:
        """This platform's row of the paper's Table 1."""
        return {
            "platform": self.name,
            "isolation": self.isolation_label,
            "performance": self.performance_label,
            "memory_efficiency": self.memory_label,
        }
