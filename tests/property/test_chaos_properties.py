"""Property tests: invariants that hold for *random* seeded fault plans.

For every seed the same four things must be true no matter which faults
the plan happened to draw:

* accounting is exact — every submission ends up as exactly one completed
  record or one InvocationFailedError, and the ledger counts each once
  (no double billing, no losses);
* every completed record's trace verifies (root span duration equals the
  recorded end-to-end latency, phases cover the root);
* every ``failover`` span points at a host the controller really crashed
  *before* the failover happened;
* budgeted operation faults fire at most as often as the plan armed them,
  and every fired snapshot corruption is one counted restore failure.
"""

import dataclasses

import pytest

from repro.bench import fresh_cluster_platform, install_all
from repro.chaos import (BUDGET_KINDS, KIND_PARAM_FETCH_TIMEOUT,
                         KIND_RESTORE_CORRUPTION, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.policy.placement import POLICY_SNAPSHOT_LOCALITY
from repro.sim.rng import RngStreams
from repro.trace import verify_invocation
from repro.workloads import faasdom_spec

SEEDS = (1, 2, 3, 4, 5)
N_HOSTS = 3
N_FUNCTIONS = 6
DURATION_MS = 60_000.0
#: Submission cadence: frequent enough that bus-partition windows (at
#: least 300 ms under this duration) always straddle some submissions.
PERIOD_MS = 197.0
#: Budget events added to each seed's random plan.
N_BUDGETS = 4


def _specs():
    base = faasdom_spec("faas-netlatency", "nodejs")
    return [dataclasses.replace(base, name=f"pfn-{i:02d}")
            for i in range(N_FUNCTIONS)]


def _budget_events(seed, specs):
    """Seeded budget events from this test's own RNG stream, so that
    ``ChaosPlan.random`` (and its determinism tests) stay unchanged."""
    rng = RngStreams(seed).stream("chaos-property-budgets")
    events = []
    for _ in range(N_BUDGETS):
        at_ms = rng.uniform(0.0, 0.85) * DURATION_MS
        kind = rng.choice((KIND_RESTORE_CORRUPTION,
                           KIND_PARAM_FETCH_TIMEOUT))
        events.append(ChaosEvent(at_ms, kind, key=rng.choice(specs).name,
                                 count=rng.randint(1, 4)))
    return events


def _run_under_random_plan(seed):
    """Replay a fixed trace under ``ChaosPlan.random(seed)`` plus seeded
    budget events; returns (platform, controller, submitted_count,
    completed records, failure errors)."""
    platform = fresh_cluster_platform(
        FireworksPlatform, seed=seed, n_hosts=N_HOSTS,
        policy=POLICY_SNAPSHOT_LOCALITY)
    specs = _specs()
    install_all(platform, specs)
    random_plan = ChaosPlan.random(seed, n_hosts=N_HOSTS,
                                   duration_ms=DURATION_MS, n_events=6)
    plan = ChaosPlan(random_plan.events + tuple(_budget_events(seed, specs)))
    controller = HostFailureController(platform, plan, failover=True)
    sim = platform.sim
    submitted = 0
    records, failures = [], []
    at_ms = sim.now + PERIOD_MS
    index = 0
    while at_ms < DURATION_MS:
        if sim.now < at_ms:
            sim.run(until=at_ms)
        name = specs[index % N_FUNCTIONS].name
        submitted += 1
        try:
            records.append(sim.run(sim.process(platform.invoke(name))))
        except InvocationFailedError as error:
            failures.append(error)
        index += 1
        at_ms += PERIOD_MS
    sim.run()
    return platform, controller, submitted, records, failures


def _invoke_trees(chaos_run):
    """The kept ``invoke`` tree of every submission of *chaos_run*."""
    platform, _, _, records, failures = chaos_run
    tracer = platform.sim.tracer
    return ([record.span for record in records]
            + [tracer.trace(error.trace_id) for error in failures])


@pytest.fixture(scope="module", params=SEEDS)
def chaos_run(request):
    return _run_under_random_plan(request.param)


class TestAccountingProperties:
    def test_no_invocation_double_billed_or_lost(self, chaos_run):
        platform, _, submitted, records, failures = chaos_run
        assert len(records) + len(failures) == submitted
        assert platform.ledger.completed == len(records)
        assert platform.ledger.failed == len(failures)

    def test_trace_ids_unique(self, chaos_run):
        _, _, submitted, records, failures = chaos_run
        ids = [record.trace_id for record in records]
        ids += [error.trace_id for error in failures]
        assert len(set(ids)) == submitted

    def test_failures_only_under_chaos(self, chaos_run):
        failures = chaos_run[4]
        # Every failure is attributable: its reason names a chaos cause.
        for error in failures:
            assert any(token in error.reason
                       for token in ("down", "capacity", "unreachable",
                                     "snapshot", "lost", "injected")), \
                error.reason


class TestTraceProperties:
    def test_every_completed_record_verifies(self, chaos_run):
        for record in chaos_run[3]:
            breakdown = verify_invocation(record)
            assert record.span.duration_ms == record.end_to_end_ms
            del breakdown

    def test_retry_spans_count_matches_platform_counter(self, chaos_run):
        spans = [span for tree in _invoke_trees(chaos_run)
                 for span in tree.find_all("retry")
                 if span.attrs.get("target") == "invoke"]
        assert len(spans) == chaos_run[0].retries


class TestFailoverProperties:
    def test_every_failover_has_an_earlier_host_down(self, chaos_run):
        platform, controller = chaos_run[:2]
        crashes = [(entry.at_ms, entry.host_id) for entry in controller.log
                   if entry.kind == "host-crash"]
        spans = [span for tree in _invoke_trees(chaos_run)
                 for span in tree.find_all("failover")]
        assert len(spans) == platform.failovers
        for span in spans:
            from_host = span.attrs["from_host"]
            assert any(host_id == from_host and at_ms <= span.start_ms
                       for at_ms, host_id in crashes), \
                f"failover from host{from_host} with no prior crash"

    def test_property_is_not_vacuous(self):
        # Random plans rarely crash a host mid-flight, so pin the property
        # against a scenario engineered to produce a failover span.
        from tests.chaos.helpers import run_crash_during
        _, controller, record = run_crash_during("restore")
        spans = record.span.find_all("failover")
        assert spans, "engineered crash produced no failover span"
        crashes = [(entry.at_ms, entry.host_id) for entry in controller.log
                   if entry.kind == "host-crash"]
        for span in spans:
            assert any(host_id == span.attrs["from_host"]
                       and at_ms <= span.start_ms
                       for at_ms, host_id in crashes)


class TestBudgetProperties:
    @staticmethod
    def _armed(controller):
        armed = {}
        for event in controller.plan.events:
            if event.kind in BUDGET_KINDS:
                slot = (event.kind, event.key)
                armed[slot] = armed.get(slot, 0) + event.count
        return armed

    def test_fired_never_exceeds_armed(self, chaos_run):
        controller = chaos_run[1]
        armed = self._armed(controller)
        for slot, fired in controller.fired.items():
            assert fired <= armed.get(slot, 0), slot

    def test_every_fired_corruption_is_a_restore_failure(self, chaos_run):
        platform, controller = chaos_run[:2]
        corruptions = sum(fired for (kind, _), fired
                          in controller.fired.items()
                          if kind == KIND_RESTORE_CORRUPTION)
        assert platform.restore_failures == corruptions

    def test_budgets_fire(self, chaos_run):
        # Guards the two properties above against vacuity.
        controller = chaos_run[1]
        assert sum(controller.fired.values()) > 0
