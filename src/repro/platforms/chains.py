"""The chain executor: drives :class:`~repro.workloads.dag.DagSpec` DAGs
on *any* backend.

Two execution modes, chosen per (dag, platform):

* **guest** — the DAG's ``guest_hops`` programs perform their own
  ``InvokeNext`` hops, exactly the paper's §5.3 chains.  Only
  chain-capable backends (OpenWhisk, Fireworks) run this mode; the
  executor contributes installation, trigger wiring, and the chain/stage
  span overlay.  The driven event sequence is byte-identical to calling
  ``platform.invoke`` directly (the Fig 9 golden hash rides on this).
* **orchestrated** — the executor itself dispatches every invoke edge as
  a top-level invocation through the real bus/frontend/placement path
  (``defer_hops=True`` stops the guest from double-dispatching), so all
  five backends execute chains.  Fan-out stages run concurrently;
  fan-in waits for every taken in-edge; conditional edges are evaluated
  against the run payload.  Each dispatched stage carries a placement
  ``locality_hint`` marking its predecessors' hosts — the chain-locality
  placement signals read this.

Trigger edges route through the platform's database triggers in both
modes: ``install`` registers them with a *runner*.  In orchestrated mode
the runner makes the triggered subgraph itself executor-driven (a
guest-chaining triggered function would otherwise crash a backend
without chain support); in guest mode it fires the trigger as the
platform would and keeps the record of the firing.

**At-most-once per stage**: every dispatch increments the run's ledger
*before* invoking, and a stage is dispatched only when it has never been
dispatched — chaos retries happen *inside* ``platform.invoke`` (the
failover path), so a crash mid-DAG can never double-execute a completed
stage.  The chaos regression suite locks this.

Tracing: after a run completes, a retrospective ``chain`` root span
(duration exactly the run's end-to-end) with one ``stage`` child per
executed stage is recorded.  Retrospective spans consume no simulated
time, no RNG, and leave every invocation's own span tree untouched,
which is what keeps the golden figures byte-identical.

The executor refers to its platform weakly: in orchestrated mode the
platform's trigger registrations hold the executor's runners, so a
strong link back would make a reference cycle that keeps a finished
platform alive until the cyclic GC runs.  The caller keeps the platform
alive while it drives DAGs on it.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.errors import (InvocationFailedError, InvocationSheddedError,
                          ValidationError)
from repro.platforms.base import (MODE_AUTO, InvocationRecord,
                                  ServerlessPlatform)
from repro.workloads.dag import DagSpec, validate_dag

MODE_GUEST = "guest"
MODE_ORCHESTRATED = "orchestrated"

STATUS_PENDING = "pending"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"
STATUS_SKIPPED = "skipped"
STATUS_ABORTED = "aborted"


class StageResult:
    """What happened to one stage of one run."""

    __slots__ = ("stage", "function", "status", "record", "host_id",
                 "start_ms", "end_ms", "attempts")

    def __init__(self, stage: str, function: str) -> None:
        self.stage = stage
        self.function = function
        self.status = STATUS_PENDING
        self.record: Optional[InvocationRecord] = None
        self.host_id: Optional[int] = None
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.attempts = 1


class DagRun:
    """One DAG execution: per-stage results, ledger, and timings."""

    def __init__(self, dag: DagSpec, mode: str, chain_id: str,
                 root: Optional[str] = None,
                 trigger_database: str = "") -> None:
        self.dag = dag
        self.mode = mode
        self.chain_id = chain_id
        #: The subgraph root: the dag entry, or a trigger-driven stage
        #: for a trigger segment.
        self.root = root or dag.entry
        self.trigger_database = trigger_database
        self.stages: Dict[str, StageResult] = {
            stage.name: StageResult(stage.name, stage.function)
            for stage in dag.stages}
        #: Dispatch count per stage — the at-most-once proof object.
        self.ledger: Dict[str, int] = {}
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.entry_record: Optional[InvocationRecord] = None
        self.failed = False
        self.locality_hits = 0
        self.locality_chances = 0
        self.process = None

    @property
    def end_to_end_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def status(self) -> str:
        return STATUS_FAILED if self.failed else STATUS_OK

    def executed(self) -> List[StageResult]:
        """Stage results that actually dispatched, in stage order."""
        return [self.stages[name] for name in self.dag.stage_names()
                if self.ledger.get(name)]

    def records(self) -> List[InvocationRecord]:
        """Every invocation record of this run (guest children included)."""
        if self.mode == MODE_GUEST and self.entry_record is not None:
            return self.entry_record.chain_records()
        return [result.record for result in self.executed()
                if result.record is not None]


class ChainExecutor:
    """Drives DAGs on one platform (see module docstring)."""

    def __init__(self, platform: ServerlessPlatform) -> None:
        self._platform = weakref.ref(platform)
        self._seq = 0
        self._installed: set = set()
        self._registered_triggers: set = set()
        #: Change-feed segments run on behalf of trigger edges
        #: (orchestrated mode only), in firing order.
        self.trigger_runs: List[DagRun] = []
        #: The record of each completed trigger firing (guest mode only),
        #: in firing order; its chain children hang off it.
        self.trigger_records: List[InvocationRecord] = []

    @property
    def platform(self) -> ServerlessPlatform:
        """The platform DAGs run on (held weakly, see the module
        docstring)."""
        return self._platform()

    # -- setup -----------------------------------------------------------------
    def mode_for(self, dag: DagSpec) -> str:
        """How this platform executes *dag*: guest hops when both sides
        support them, the orchestrator otherwise."""
        if dag.guest_hops and self.platform.supports_chains:
            return MODE_GUEST
        return MODE_ORCHESTRATED

    def install(self, dag: DagSpec) -> None:
        """Install the DAG's functions and wire its trigger edges.

        Blocking (runs the simulation per install, like
        :func:`repro.bench.harness.install_all`); idempotent per function
        and per trigger edge.
        """
        validate_dag(dag)
        if not dag.functions:
            raise ValidationError(
                f"dag {dag.name!r} has no functions bound; "
                "attach FunctionSpecs before installing")
        sim = self.platform.sim
        for spec in dag.functions:
            if spec.name in self._installed:
                continue
            sim.run(sim.process(self.platform.install(spec)))
            self._installed.add(spec.name)
        use_guest = self.mode_for(dag) == MODE_GUEST
        for edge in dag.trigger_edges():
            stage = dag.stage(edge.dst)
            key = (edge.database, stage.function)
            if key in self._registered_triggers:
                continue
            runner = self._guest_trigger_runner if use_guest else \
                self._make_trigger_runner(dag, edge.dst)
            self.platform.register_db_trigger(
                edge.database, stage.function, runner=runner)
            self._registered_triggers.add(key)

    # -- execution -------------------------------------------------------------
    def submit(self, dag: DagSpec, payload: Optional[Mapping[str, Any]] = None,
               mode: str = MODE_AUTO) -> DagRun:
        """Launch one DAG run as a detached process (open-loop replay)."""
        run = self._new_run(dag)
        run.process = self.platform.sim.process(
            self._drive(run, dict(payload or {}), mode),
            name=f"chain:{dag.name}:{self._seq}")
        return run

    def run(self, dag: DagSpec, payload: Optional[Mapping[str, Any]] = None,
            mode: str = MODE_AUTO) -> DagRun:
        """Run one DAG to completion (blocking); verifies the records."""
        from repro.trace import verify_invocation
        run = self.submit(dag, payload, mode)
        self.platform.sim.run(run.process)
        for record in run.records():
            verify_invocation(record)
        return run

    def _new_run(self, dag: DagSpec, root: Optional[str] = None,
                 trigger_database: str = "") -> DagRun:
        self._seq += 1
        mode = self.mode_for(dag)
        chain_id = f"chain-{self.platform.name}-{self._seq}"
        return DagRun(dag, mode, chain_id, root=root,
                      trigger_database=trigger_database)

    # -- drivers ---------------------------------------------------------------
    def _drive(self, run: DagRun, payload: Dict[str, Any], mode: str):
        if run.mode == MODE_GUEST:
            yield from self._drive_guest(run, payload, mode)
        else:
            yield from self._drive_orchestrated(run, payload, mode)
        self._overlay_spans(run)

    def _drive_guest(self, run: DagRun, payload: Dict[str, Any], mode: str):
        """Entry invocation only: the guest performs the hops itself."""
        platform = self.platform
        run.start_ms = platform.sim.now
        entry = run.stages[run.root]
        run.ledger[run.root] = run.ledger.get(run.root, 0) + 1
        try:
            record = yield from platform.invoke(
                entry.function, payload=payload, mode=mode)
        except InvocationSheddedError:
            entry.status = STATUS_SHED
            run.failed = True
        except InvocationFailedError:
            entry.status = STATUS_FAILED
            run.failed = True
        else:
            run.entry_record = record
            by_function = {stage.function: stage.name
                           for stage in run.dag.stages}
            for hop in record.chain_records():
                stage_name = by_function.get(hop.function)
                if stage_name is None:
                    continue
                result = run.stages[stage_name]
                if stage_name != run.root:
                    run.ledger[stage_name] = \
                        run.ledger.get(stage_name, 0) + 1
                result.status = STATUS_OK
                result.record = hop
                result.host_id = hop.host_id
                result.attempts = hop.attempts
                result.start_ms = hop.submitted_ms
                result.end_ms = hop.completed_ms
        run.end_ms = platform.sim.now
        self._mark_skipped(run)

    def _drive_orchestrated(self, run: DagRun, payload: Dict[str, Any],
                            mode: str):
        """Wave-synchronous dispatch over the taken invoke subgraph."""
        platform = self.platform
        sim = platform.sim
        dag = run.dag
        run.start_ms = sim.now
        active = set(dag.active_stages(payload, root=run.root))
        pred_hosts: Dict[str, int] = {}
        done: set = set()
        dead: set = set()
        remaining = [name for name in dag.invoke_order() if name in active]

        def deps(stage: str) -> List[str]:
            if stage == run.root:
                return []
            return [edge.src for edge in dag.invoke_in_edges(stage)
                    if edge.src in active and edge.taken(payload)]

        while remaining:
            wave: List[str] = []
            for stage in list(remaining):
                stage_deps = deps(stage)
                if any(src in dead for src in stage_deps):
                    run.stages[stage].status = STATUS_ABORTED
                    dead.add(stage)
                    remaining.remove(stage)
                elif all(src in done for src in stage_deps):
                    wave.append(stage)
            if not wave:
                if any(src in dead for name in remaining
                       for src in deps(name)):
                    continue
                break  # defensive: validate_dag guarantees progress
            processes = []
            for stage in wave:
                remaining.remove(stage)
                if run.ledger.get(stage):
                    continue  # at-most-once: never re-dispatch
                processes.append((stage, sim.process(
                    self._dispatch_stage(run, stage, payload, mode,
                                         pred_hosts),
                    name=f"stage:{dag.name}:{stage}")))
            if processes:
                yield sim.all_of([process for _, process in processes])
            for stage, _process in processes:
                if run.stages[stage].status == STATUS_OK:
                    done.add(stage)
                else:
                    dead.add(stage)
        run.end_ms = sim.now
        self._mark_skipped(run)

    def _dispatch_stage(self, run: DagRun, stage: str,
                        payload: Dict[str, Any], mode: str,
                        pred_hosts: Dict[str, int]):
        """One orchestrated stage: a top-level invocation with hop
        deferral and a predecessor-locality placement hint."""
        platform = self.platform
        dag = run.dag
        result = run.stages[stage]
        result.start_ms = platform.sim.now
        run.ledger[stage] = run.ledger.get(stage, 0) + 1
        stage_payload = payload
        hint = None
        wanted: Set[int] = set()
        if stage != run.root:
            in_edges = [edge for edge in dag.invoke_in_edges(stage)
                        if edge.taken(payload)]
            if in_edges:
                stage_payload = dict(payload)
                stage_payload["kb"] = in_edges[0].payload_kb
            wanted = {pred_hosts[edge.src] for edge in in_edges
                      if edge.src in pred_hosts}
            if wanted:
                hint = lambda host: host.host_id in wanted  # noqa: E731
                run.locality_chances += 1
        try:
            record = yield from platform.invoke(
                result.function, payload=stage_payload, mode=mode,
                locality_hint=hint, defer_hops=True)
        except InvocationSheddedError:
            result.status = STATUS_SHED
            run.failed = True
        except InvocationFailedError:
            result.status = STATUS_FAILED
            run.failed = True
        else:
            result.status = STATUS_OK
            result.record = record
            result.host_id = record.host_id
            result.attempts = record.attempts
            pred_hosts[stage] = record.host_id
            if hint is not None and record.host_id in wanted:
                run.locality_hits += 1
            if stage == run.root:
                run.entry_record = record
        result.end_ms = platform.sim.now

    def _guest_trigger_runner(self, function: str, database: str):
        """A guest-mode trigger firing: the platform's own
        ``_fire_trigger`` (so every event and span is the same), with
        the record it returns kept in :attr:`trigger_records`."""
        record = yield from self.platform._fire_trigger(function, database)
        if record is not None:
            self.trigger_records.append(record)
        return record

    def _make_trigger_runner(self, dag: DagSpec, stage: str):
        """A trigger runner: the triggered stage and its invoke
        descendants run as an executor-driven segment."""

        def runner(function: str, database: str):
            run = self._new_run(dag, root=stage, trigger_database=database)
            self.trigger_runs.append(run)
            start_ms = self.platform.sim.now
            yield from self._drive_orchestrated(run, {}, MODE_AUTO)
            self._overlay_spans(run)
            # The same observable firing `_fire_trigger` records in guest
            # mode, so trigger ordering validates identically in both.
            self.platform.sim.tracer.add_span(
                "db-trigger", start_ms, self.platform.sim.now,
                kind="db-trigger", trace_id=f"{run.chain_id}-trigger",
                database=database, function=function, status=run.status,
                invocation=run.chain_id)
            return run

        return runner

    # -- bookkeeping -----------------------------------------------------------
    def _mark_skipped(self, run: DagRun) -> None:
        for name, result in run.stages.items():
            if result.status == STATUS_PENDING:
                result.status = STATUS_SKIPPED

    def _overlay_spans(self, run: DagRun) -> None:
        """The retrospective chain root + per-stage spans (zero sim cost)."""
        tracer = self.platform.sim.tracer
        executed = run.executed()
        attrs: Dict[str, Any] = {
            "dag": run.dag.name, "mode": run.mode,
            "stages": len(executed), "status": run.status,
            "end_to_end_ms": run.end_to_end_ms}
        if run.trigger_database:
            attrs["trigger"] = run.trigger_database
        chain_span = tracer.add_span(
            "chain", run.start_ms, run.end_ms, kind="chain",
            trace_id=run.chain_id, **attrs)
        for result in executed:
            tracer.add_span(
                "stage", result.start_ms, result.end_ms, kind="stage",
                parent=chain_span, stage=result.stage,
                function=result.function, status=result.status,
                chain=run.chain_id,
                invocation=(result.record.trace_id
                            if result.record is not None else ""))
        return None

