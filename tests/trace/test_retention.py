"""Bounded retention: a finished invocation keeps only its numbers.

The tracer keeps the first ``KEPT_ROOTS`` roots of a simulation.  Later
trees are still built — each record's breakdown is derived from its live
tree — but nothing holds them once their invocation ends: records, failed
and shed invocations reference a tree only if it was kept, spans carry no
parent pointer, records hold no worker unless the platform retains workers,
and a Fireworks clone's parameter topic goes with the clone.
"""

import dataclasses
import gc

import pytest

from repro.bench import fresh_cluster_platform, fresh_platform, install_all
from repro.bench.harness import install_chain, invoke_once
from repro.bench.load import run_load_platform
from repro.chaos import (KIND_RESTORE_CORRUPTION, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.config import default_parameters
from repro.core import FireworksPlatform
from repro.core.parameter_passer import topic_for
from repro.errors import (InvocationFailedError, InvocationSheddedError,
                          TraceInvariantError)
from repro.metrics import summarize
from repro.sim import Simulation
from repro.trace import KEPT_ROOTS, Span
from repro.workloads import ALEXA_SKILLS, alexa_skills_chain, faasdom_spec
from tests.helpers import run

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


class TestLongReplay:
    """A replay that outgrows the bound, with the cyclic GC off: whatever
    is still alive afterwards is held by a reference, not by a cycle."""

    @pytest.fixture(scope="class")
    def replay(self):
        gc.collect()
        gc.disable()
        try:
            _outcome, platform = run_load_platform(
                "fireworks", "predictive", duration_ms=5_000.0, seed=7,
                return_platform=True)
            tracer = platform.sim.tracer
            live = {id(obj) for obj in gc.get_objects()
                    if isinstance(obj, Span) and obj._tracer is tracer}
        finally:
            gc.enable()
        return platform, live

    def test_keeps_exactly_the_bound(self, replay):
        platform, _ = replay
        assert len(platform.sim.tracer.traces()) == KEPT_ROOTS

    def test_later_records_have_no_span(self, replay):
        platform, _ = replay
        kept = {root.trace_id for root in platform.sim.tracer.traces()}
        records = sorted(platform.records, key=_invocation_seq)
        has_span = [record.span is not None for record in records]
        # Kept trees are a prefix in submission order, and both sides of
        # the cut are populated.
        assert has_span == sorted(has_span, reverse=True)
        assert any(has_span) and not all(has_span)
        for record in records:
            assert (record.span is not None) == (record.trace_id in kept)

    def test_no_record_holds_a_worker(self, replay):
        platform, _ = replay
        assert platform.records
        assert all(record.worker is None for record in platform.records)

    def test_live_spans_are_exactly_the_kept_trees(self, replay):
        platform, live = replay
        roots = platform.sim.tracer.traces()
        kept = {id(span) for root in roots for span in root.walk()}
        assert len(roots) == KEPT_ROOTS
        assert live == kept

    def test_no_clone_topic_outlives_its_clone(self, replay):
        platform, _ = replay
        live_clones = {topic_for(fc_id)
                       for fc_id, _host in platform._warm_fc_ids.values()}
        clone_topics = {name for name in platform.bus.topic_names()
                        if name.startswith(topic_for(""))}
        assert clone_topics <= live_clones


def _submit_at(platform, function: str, at_ms: float):
    """Submit *function* at *at_ms*; sheds and failures are accounted on
    the platform, not raised."""
    sim = platform.sim
    yield sim.timeout(at_ms - sim.now)
    try:
        yield from platform.invoke(function)
    except (InvocationSheddedError, InvocationFailedError):
        pass


def _mixed_run(padded: bool):
    """Completed, failed, shed and chained invocations on one host with
    four slots and a one-deep admission queue."""
    base = default_parameters()
    params = dataclasses.replace(base, autoscale=dataclasses.replace(
        base.autoscale, enabled=True, queue_capacity=1))
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
    platform.sim.process(_submit_at(platform, fact.name, start))
    for burst in range(1, 4):
        # Eight at once every 2 s: four run, one queues, three are shed.
        for _ in range(8):
            platform.sim.process(_submit_at(platform, fact.name,
                                            start + 2_000.0 * burst))
    for index in range(2):
        # Chains run alone, so their synchronous hops find free slots.
        platform.sim.process(_submit_at(platform, chain.entry,
                                        start + 10_000.0 + 2_000.0 * index))
    platform.sim.run()
    return platform


class TestPaddedTracer:
    """Past the bound, invocations keep no tree but the same numbers."""

    @pytest.fixture(scope="class")
    def runs(self):
        return _mixed_run(padded=False), _mixed_run(padded=True)

    @staticmethod
    def _chain_records(platform):
        return [hop for record in platform.records
                for hop in record.chain_records()]

    def test_past_the_bound_nothing_keeps_a_tree(self, runs):
        plain, padded = runs
        # The run covers every outcome, and below the bound every one of
        # them keeps its tree.
        assert plain.failed_invocations and plain.shedded_invocations
        assert any(record.children for record in plain.records)
        outcomes = (self._chain_records(plain) + plain.failed_invocations
                    + plain.shedded_invocations)
        assert all(outcome.span is not None for outcome in outcomes)
        assert len(padded.sim.tracer.traces()) == KEPT_ROOTS
        outcomes = (self._chain_records(padded) + padded.failed_invocations
                    + padded.shedded_invocations)
        assert all(outcome.span is None for outcome in outcomes)

    def test_numbers_are_unchanged(self, runs):
        plain, padded = runs
        ours_all = self._chain_records(plain)
        theirs_all = self._chain_records(padded)
        assert len(ours_all) == len(theirs_all)
        for ours, theirs in zip(ours_all, theirs_all):
            for name in RECORD_FIELDS:
                assert getattr(ours, name) == getattr(theirs, name), name
        assert [dataclasses.replace(failed, span=None)
                for failed in plain.failed_invocations] == \
            padded.failed_invocations
        # A shed invocation's span is excluded from its equality.
        assert plain.shedded_invocations == padded.shedded_invocations
        # Summaries of records without a tree fall back to the recorded
        # fields, which came from the same breakdown.
        summaries = [summarize(platform.name, platform.records,
                               failed=platform.failed_invocations,
                               shedded=platform.shedded_invocations)
                     for platform in runs]
        assert summaries[0] == summaries[1]


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
