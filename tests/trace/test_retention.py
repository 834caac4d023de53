"""Bounded retention: a finished invocation keeps only its numbers.

The tracer keeps the first ``KEPT_ROOTS`` roots of a simulation.  Later
trees are still built — each record's breakdown is derived from its live
tree — but nothing holds them once their invocation ends: the platform
folds every outcome into its ledger and keeps nothing else of it, spans
carry no parent pointer, records hold no worker unless the platform
retains workers, and a Fireworks clone's parameter topic goes with the
clone.
"""

import dataclasses
import gc
import math
import weakref
from array import array

import pytest

from repro.autoscale import WarmPoolAutoscaler
from repro.bench import fresh_cluster_platform, fresh_platform, install_all
from repro.bench.chains import tenant_pipeline_dag
from repro.bench.concurrency import run_load_sweep
from repro.bench.engine import experiment_ids, run_experiments
from repro.bench.harness import install_chain, invoke_once
from repro.bench.load import run_load_platform
from repro.chaos import (KIND_HOST_CRASH, KIND_RESTORE_CORRUPTION,
                         ChaosEvent, ChaosPlan, HostFailureController)
from repro.cluster import Host
from repro.config import default_parameters
from repro.core import FireworksPlatform
from repro.core.parameter_passer import topic_for
from repro.errors import (InvocationFailedError, InvocationSheddedError,
                          TraceInvariantError)
from repro.platforms.chains import MODE_ORCHESTRATED, ChainExecutor
from repro.platforms.ledger import InvocationLedger
from repro.sim import Interrupt, Resource, Simulation, Store
from repro.trace import KEPT_ROOTS, Span
from repro.workloads import ALEXA_SKILLS, alexa_skills_chain, faasdom_spec
from tests.helpers import invoke_roots, outcome_of, run

#: Record fields every derived figure reads.
RECORD_FIELDS = ("function", "mode", "host_id", "submitted_ms",
                 "completed_ms", "startup_ms", "exec_ms", "other_ms",
                 "queue_wait_ms", "attempts", "trace_id")


def _pad(tracer) -> None:
    """Fill *tracer* to ``KEPT_ROOTS`` roots; schedules no events."""
    for index in range(KEPT_ROOTS - len(tracer.traces())):
        tracer.add_span("pad", 0.0, 0.0, trace_id=f"pad-{index}")


def _invocation_seq(record) -> int:
    return int(record.trace_id.rsplit("inv", 1)[1])


def _live_span_ids() -> set:
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, Span)}


def _with_admission(**autoscale):
    """Default parameters with admission queues on every host."""
    base = default_parameters()
    return dataclasses.replace(base, autoscale=dataclasses.replace(
        base.autoscale, enabled=True, **autoscale))


class TestLongReplay:
    """A replay that outgrows the bound, with the cyclic GC off: whatever
    is still alive afterwards is held by a reference, not by a cycle."""

    @pytest.fixture(scope="class")
    def replay(self):
        gc.collect()
        gc.disable()
        try:
            # A closed span holds no tracer, so the replay's spans are the
            # ones alive now that were not before it.  The replay does not
            # touch the earlier ones, so none of their ids is reused.
            before = _live_span_ids()
            _outcome, platform = run_load_platform(
                "fireworks", "predictive", duration_ms=5_000.0, seed=7,
                return_platform=True)
            live = _live_span_ids() - before
        finally:
            gc.enable()
        return platform, live

    def test_keeps_exactly_the_bound(self, replay):
        platform, _ = replay
        assert len(platform.sim.tracer.traces()) == KEPT_ROOTS

    def test_kept_invocations_are_a_prefix(self, replay):
        """A root is kept when it opens, so the kept ``invoke`` trees are
        a prefix of the invocations in submission order."""
        platform, _ = replay
        seqs = sorted(_invocation_seq(root)
                      for root in invoke_roots(platform))
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(seqs) < platform._invocation_seq

    def test_the_ledger_counts_every_completion(self, replay):
        platform, _ = replay
        ledger = platform.ledger
        # Both sides of the cut are populated: the ledger folded the
        # invocations whose trees were dropped too.
        completed = [root for root in invoke_roots(platform)
                     if outcome_of(root) == "completed"]
        assert 0 < len(completed) < ledger.completed
        assert ledger.completed + ledger.failed + ledger.shed == \
            platform._invocation_seq

    def test_no_record_holds_a_worker(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        assert invoke_once(platform, spec.name).worker is None
        platform.retain_workers = True
        record = invoke_once(platform, spec.name)
        assert record.worker is platform.active_workers[0]

    def test_live_spans_are_exactly_the_kept_trees(self, replay):
        platform, live = replay
        roots = platform.sim.tracer.traces()
        kept = {id(span) for root in roots for span in root.walk()}
        assert len(roots) == KEPT_ROOTS
        assert live == kept

    def test_no_clone_topic_outlives_its_clone(self, replay):
        platform, _ = replay
        now = platform.sim.now
        # After the drain the only clones left are pooled ones, live or
        # expired; each knows its fcID from its MMDS.
        live_clones = {
            topic_for(entry.worker.sandbox.mmds.get("fcID"))
            for host in platform.cluster.hosts
            for entry in (host.pool.live_entries(now)
                          + host.pool.expired_entries)}
        clone_topics = {name for name in platform.bus.topic_names()
                        if name.startswith(topic_for(""))}
        assert clone_topics <= live_clones


def _submit_at(platform, function: str, at_ms: float, returned: list):
    """Submit *function* at *at_ms*; append what ``invoke`` returned or
    raised (a record, or the failed or shed error) to *returned*."""
    sim = platform.sim
    yield sim.timeout(at_ms - sim.now)
    try:
        returned.append((yield from platform.invoke(function)))
    except (InvocationSheddedError, InvocationFailedError) as error:
        returned.append(error)


def _completions(returned):
    """The records among *returned*, chain hops included, in the order
    their invocations completed (a synchronous hop before its caller)."""
    def post_order(record):
        for child in record.children:
            yield from post_order(child)
        yield record

    return [hop for outcome in returned if not isinstance(outcome, Exception)
            for hop in post_order(outcome)]


def _errors(returned, error_type):
    return [outcome for outcome in returned
            if isinstance(outcome, error_type)]


def _mixed_run(padded: bool):
    """Completed, failed, shed and chained invocations on one host with
    four slots and a one-deep admission queue.  Returns the platform and
    the outcomes ``invoke`` handed back, in completion order."""
    params = _with_admission(queue_capacity=1)
    platform = fresh_cluster_platform(FireworksPlatform, params, n_hosts=1,
                                      capacity_per_host=4)
    fact = faasdom_spec("faas-fact", "nodejs")
    chain = alexa_skills_chain()
    install_all(platform, [fact])
    install_chain(platform, chain)
    if padded:
        _pad(platform.sim.tracer)
    start = platform.sim.now
    # A lone first invocation fails both restore attempts.
    HostFailureController(platform, ChaosPlan([ChaosEvent(
        start, KIND_RESTORE_CORRUPTION, key=fact.name,
        count=FireworksPlatform.MAX_RESTORE_ATTEMPTS)]))
    returned = []
    platform.sim.process(_submit_at(platform, fact.name, start, returned))
    for burst in range(1, 4):
        # Eight at once every 2 s: four run, one queues, three are shed.
        for _ in range(8):
            platform.sim.process(_submit_at(
                platform, fact.name, start + 2_000.0 * burst, returned))
    for index in range(2):
        # Chains run alone, so their synchronous hops find free slots.
        platform.sim.process(_submit_at(
            platform, chain.entry, start + 10_000.0 + 2_000.0 * index,
            returned))
    platform.sim.run()
    return platform, returned


class TestPaddedTracer:
    """Past the bound, invocations keep no tree, and the ledger folds the
    same numbers."""

    @pytest.fixture(scope="class")
    def runs(self):
        return _mixed_run(padded=False), _mixed_run(padded=True)

    def test_past_the_bound_nothing_keeps_a_tree(self, runs):
        (plain, returned), (padded, padded_returned) = runs
        # The run covers every outcome, and below the bound every one of
        # them keeps its tree.
        failed = _errors(returned, InvocationFailedError)
        shed = _errors(returned, InvocationSheddedError)
        records = _completions(returned)
        assert failed and shed
        assert any(record.children for record in returned
                   if not isinstance(record, Exception))
        assert all(record.span is not None for record in records)
        outcomes = [outcome_of(root) for root in invoke_roots(plain)]
        assert outcomes.count("failed") == len(failed)
        assert outcomes.count("shed") == len(shed)
        # Past it, no outcome keeps a tree.
        assert len(padded.sim.tracer.traces()) == KEPT_ROOTS
        assert invoke_roots(padded) == []
        assert all(record.span is None
                   for record in _completions(padded_returned))

    def test_numbers_are_unchanged(self, runs):
        (plain, ours_returned), (padded, theirs_returned) = runs
        assert len(ours_returned) == len(theirs_returned)
        for ours, theirs in zip(ours_returned, theirs_returned):
            assert type(ours) is type(theirs)
            if isinstance(ours, Exception):
                assert (str(ours), vars(ours)) == (str(theirs), vars(theirs))
                continue
            ours_hops, theirs_hops = (ours.chain_records(),
                                      theirs.chain_records())
            assert len(ours_hops) == len(theirs_hops)
            for hop, other in zip(ours_hops, theirs_hops):
                for name in RECORD_FIELDS:
                    assert getattr(hop, name) == getattr(other, name), name
        # Billed time included: past the bound it is folded all the same.
        assert plain.ledger == padded.ledger

    def test_ledger_reads_like_the_records_below_the_bound(self, runs):
        (plain, returned), _ = runs
        ledger, records = plain.ledger, _completions(returned)
        assert ledger.total_ms == array(
            "d", (record.total_ms for record in records))
        assert ledger.queue_wait_ms == array(
            "d", (record.queue_wait_ms for record in records))
        assert (ledger.completed, ledger.failed, ledger.shed) == (
            len(records), len(_errors(returned, InvocationFailedError)),
            len(_errors(returned, InvocationSheddedError)))
        assert ledger.billed_ms == sum(math.ceil(record.exec_ms)
                                       for record in records)
        # Folding the outcomes afresh gives the platform's ledger.
        folded = InvocationLedger(failed=ledger.failed, shed=ledger.shed)
        for record in records:
            folded.fold(record)
        assert folded == ledger


class TestKeptDecision:
    def test_every_descendant_carries_its_roots_decision(self):
        sim = Simulation()
        tracer = sim.tracer

        def invocation():
            with tracer.span("invoke", kind="invoke") as root:
                with tracer.span("exec"):
                    yield sim.timeout(1.0)
                    tracer.add_span("jit-compile", sim.now - 1.0, sim.now)
                    with tracer.span("invoke", kind="invoke"):  # a hop
                        yield sim.timeout(1.0)
            tracer.add_span("stage", root.start_ms, root.end_ms,
                            parent=root)
            return root

        kept = run(sim, invocation())
        _pad(tracer)
        dropped = run(sim, invocation())
        assert [span.kept for span in kept.walk()] == [True] * 5
        assert [span.kept for span in dropped.walk()] == [False] * 5
        assert tracer.traces()[0] is kept
        assert all(root is not dropped for root in tracer.traces())

    def test_nested_hops_inherit_the_kept_decision(self):
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_chain(platform, chain)
        record = invoke_once(platform, chain.entry,
                             payload={"skill": ALEXA_SKILLS[0]})
        hops = record.chain_records()
        assert len(hops) > 1
        assert all(hop.span is not None and hop.span.kept for hop in hops)

    def test_verifying_a_released_tree_fails_loudly(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        _pad(platform.sim.tracer)
        with pytest.raises(TraceInvariantError, match="no span"):
            invoke_once(platform, spec.name)


class _Marker:
    """Weakly referenceable: a span (slots, no ``__weakref__``) is seen to
    die through a marker in its ``attrs``."""


def _refers_to_itself(obj) -> bool:
    return any(referent is obj for referent in gc.get_referents(obj))


class TestRefcountingFreesASimulation:
    """Nothing a drained simulation keeps points back at it: the tracer
    refers to it weakly, a closed span holds no tracer and a pooled timer
    or wakeup points at its free list.  Owners' helpers refer back to
    them weakly, a decided condition leaves no callback on its children
    and a granted request does not hold itself.  So with the cyclic GC
    off, the simulation and its kept trees go the moment the last
    reference does."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_drained_simulation_with_kept_trees_and_pools(self):
        sim = Simulation(seed=1)
        marker = _Marker()

        def invocation(tracer, timeout):
            with tracer.span("root", marker=marker):
                with tracer.span("stage"):
                    yield timeout(1.0)

        sim.process(invocation(sim.tracer, sim.timeout))
        sim.schedule_timeout(2.0, lambda _value: None)
        sim.tracer.add_span("retro", 0.0, 1.0)
        sim.run()
        assert sim._timer_pool and sim._wakeup_pool
        assert [root.name for root in sim.tracer.traces()] == \
            ["retro", "root"]
        sim_ref, marker_ref = weakref.ref(sim), weakref.ref(marker)
        del sim, marker
        assert sim_ref() is None
        assert marker_ref() is None

    def test_drained_platform_goes_with_its_last_reference(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        for _ in range(3):
            invoke_once(platform, spec.name)
        platform.sim.run()
        marker = _Marker()
        platform.sim.tracer.traces()[-1].attrs["marker"] = marker
        sim_ref, marker_ref = weakref.ref(platform.sim), weakref.ref(marker)
        del platform, marker
        assert sim_ref() is None
        assert marker_ref() is None

    def test_platform_with_every_helper_goes_with_its_last_reference(self):
        """Admission queues, an autoscaler, a chaos controller and a chain
        executor whose trigger runner the platform holds: each refers
        back to the platform weakly."""
        platform = fresh_cluster_platform(
            FireworksPlatform, _with_admission(), n_hosts=2,
            capacity_per_host=2)
        executor = ChainExecutor(platform)
        dag = tenant_pipeline_dag("t0")
        executor.install(dag)
        assert executor.mode_for(dag) == MODE_ORCHESTRATED
        assert any(runner is not None
                   for registered in platform._db_triggers.values()
                   for _function, runner in registered)
        start = platform.sim.now
        WarmPoolAutoscaler(platform, mode="reactive",
                           until_ms=start + 4_000.0)
        HostFailureController(platform, ChaosPlan([ChaosEvent(
            start + 1_500.0, KIND_HOST_CRASH, host_id=1)]))
        runs = [executor.submit(dag) for _ in range(6)]
        platform.sim.run()
        assert all(host.admission is not None
                   for host in platform.cluster.hosts)
        assert len(executor.trigger_runs) == len(runs)
        assert platform.chaos.log and platform.autoscaler is not None
        refs = [weakref.ref(platform), weakref.ref(platform.sim)]
        del platform, executor, runs
        assert [ref() for ref in refs] == [None, None]

    def test_wait_budget_shed_leaves_no_callback_on_the_waiter(self):
        sim = Simulation(seed=1)
        host = Host(sim, _with_admission(queue_capacity=1,
                                         max_queue_wait_ms=5.0),
                    capacity=1)
        queue = host.admission
        outcomes = []

        def request():
            try:
                outcomes.append((yield from queue.admit("fn")))
            except InvocationSheddedError as error:
                outcomes.append(error.reason)

        sim.process(request())
        sim.process(request())
        sim.run(until=1.0)
        [waiter] = queue._waiters
        sim.run()
        assert outcomes == [0.0, "wait-budget"]
        # The budget's timeout decided the AnyOf; the hand-off event it
        # beat never fires and keeps no callback of the condition.
        assert not waiter.event.triggered
        assert waiter.event.callbacks == []
        sim_ref = weakref.ref(sim)
        del sim, host, queue, waiter
        assert sim_ref() is None

    @pytest.mark.parametrize("kind", ["any-of", "any-of-built-decided",
                                      "all-of-failed"])
    def test_decided_condition_leaves_no_callback_on_a_pending_child(
            self, kind):
        sim = Simulation(seed=1)
        pending = sim.event("never")
        if kind == "any-of":
            decider = sim.timeout(1.0)
            cond = sim.any_of([pending, decider])
        elif kind == "any-of-built-decided":
            decider = sim.event("ready").succeed()
            cond = sim.any_of([decider, pending])
        else:
            decider = sim.event("fails")
            sim.schedule_timeout(1.0, lambda _value: decider.fail(
                RuntimeError("child failed")))
            cond = sim.all_of([decider, pending])
        sim.run()
        assert cond.processed and cond.ok is kind.startswith("any-of")
        assert pending.callbacks == []
        sim_ref = weakref.ref(sim)
        del sim, cond, pending, decider
        assert sim_ref() is None

    def test_granted_requests_and_served_getters_hold_nothing_of_their_own(
            self):
        sim = Simulation(seed=1)
        cpu = Resource(sim, capacity=1)
        granted, waiter, withdrawn = (cpu.request(), cpu.request(),
                                      cpu.request())
        store = Store(sim)
        getter = store.get()

        def withdraw():
            try:
                yield withdrawn
            except Interrupt:
                pass

        process = sim.process(withdraw())
        sim.run()
        process.interrupt()
        sim.run()
        cpu.release(granted)
        store.put("item")
        sim.run()
        assert waiter.triggered and getter.value == "item"
        assert not withdrawn.triggered and cpu.queue_length == 0
        for event in (granted, waiter, withdrawn, getter):
            assert event.on_abandoned is None
            assert not _refers_to_itself(event)

    @staticmethod
    def _track_simulations(monkeypatch) -> list:
        """A list that gets a weak reference to each Simulation built."""
        built = []
        init = Simulation.__init__

        def tracking_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            built.append(weakref.ref(sim))

        monkeypatch.setattr(Simulation, "__init__", tracking_init)
        return built

    def _assert_every_simulation_freed(self, monkeypatch, experiment: str):
        built = self._track_simulations(monkeypatch)
        run_experiments([experiment], use_cache=False)
        assert built
        assert [ref() for ref in built] == [None] * len(built)

    def test_every_load_sweep_simulation_goes_with_the_call(
            self, monkeypatch):
        # Called directly, outside the engine's drain: each rate must
        # drain its own simulation, whose retires outlive the requests.
        built = self._track_simulations(monkeypatch)
        points = run_load_sweep(FireworksPlatform, rates_rps=(20.0, 60.0),
                                seed=2022)
        assert tuple(points) == (20.0, 60.0)
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]

    def test_every_fig10_simulation_goes_with_its_last_reference(
            self, monkeypatch):
        self._assert_every_simulation_freed(monkeypatch, "fig10")

    @pytest.mark.parametrize("experiment", [
        experiment_id for experiment_id in experiment_ids()
        if experiment_id not in ("load", "fig10", "table2")])
    def test_every_simulation_goes_with_its_last_reference(
            self, monkeypatch, experiment):
        # The engine drains each shard's simulations, so one that ended
        # with a teardown or retire still pending goes too.  (``load``
        # takes minutes, ``fig10`` has its own test above and ``table2``
        # builds no simulation.)
        self._assert_every_simulation_freed(monkeypatch, experiment)
