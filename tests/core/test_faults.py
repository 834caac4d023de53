"""Budgeted operation faults: the control plane's recovery paths.

A chaos plan's budget events (``restore-corruption``,
``param-fetch-timeout``, ``db-timeout``) arm ``count`` failures of one
operation; the component that runs it consults the platform's chaos
controller, which fires them and keeps the fired-fault ledger.
"""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.chaos import (KIND_DB_TIMEOUT, KIND_PARAM_FETCH_TIMEOUT,
                         KIND_RESTORE_CORRUPTION, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.core.parameter_passer import topic_for
from repro.errors import (ChaosError, InjectedFault, InvocationFailedError,
                          SnapshotCorruptedError)
from repro.workloads import REMINDER_DB, alexa_skills_chain, faasdom_spec


def arm(platform, *budgets):
    """Attach a controller whose plan arms each ``(kind, key, count)``
    budget at the current simulation time; returns the controller."""
    now = platform.sim.now
    return HostFailureController(platform, ChaosPlan([
        ChaosEvent(now, kind, key=key, count=count)
        for kind, key, count in budgets]))


@pytest.fixture
def faulty_platform():
    platform = fresh_platform(FireworksPlatform)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    return platform, spec


class TestInjector:
    """The controller's budget ledger: arm, fire, count."""

    def test_unarmed_never_fails(self):
        controller = arm(fresh_platform(FireworksPlatform))
        controller.check(KIND_RESTORE_CORRUPTION, "fn")  # no raise
        assert controller.fired == {}

    def test_budget_consumed(self):
        platform = fresh_platform(FireworksPlatform)
        controller = arm(platform, (KIND_RESTORE_CORRUPTION, "fn", 2))
        platform.sim.run()  # the controller applies its plan
        for _ in range(2):
            with pytest.raises(SnapshotCorruptedError):
                controller.check(KIND_RESTORE_CORRUPTION, "fn")
        controller.check(KIND_RESTORE_CORRUPTION, "fn")  # spent
        assert controller.fired == {(KIND_RESTORE_CORRUPTION, "fn"): 2}

    def test_check_raises_typed_errors(self):
        platform = fresh_platform(FireworksPlatform)
        controller = arm(platform, (KIND_RESTORE_CORRUPTION, "fn", 1),
                         (KIND_DB_TIMEOUT, "wages", 1))
        platform.sim.run()
        with pytest.raises(SnapshotCorruptedError) as excinfo:
            controller.check(KIND_RESTORE_CORRUPTION, "fn")
        assert excinfo.value.kind == KIND_RESTORE_CORRUPTION
        with pytest.raises(InjectedFault) as excinfo:
            controller.check(KIND_DB_TIMEOUT, "wages")
        assert excinfo.value.kind == KIND_DB_TIMEOUT
        assert not isinstance(excinfo.value, SnapshotCorruptedError)

    def test_budgets_on_one_slot_add_up(self):
        platform = fresh_platform(FireworksPlatform)
        controller = arm(platform, (KIND_DB_TIMEOUT, "wages", 1),
                         (KIND_DB_TIMEOUT, "wages", 2))
        platform.sim.run()
        for _ in range(3):
            with pytest.raises(InjectedFault):
                controller.check(KIND_DB_TIMEOUT, "wages")
        controller.check(KIND_DB_TIMEOUT, "wages")
        assert controller.fired == {(KIND_DB_TIMEOUT, "wages"): 3}

    def test_bad_count_raises(self):
        for count in (0, -1):
            with pytest.raises(ChaosError):
                ChaosPlan([ChaosEvent(0.0, KIND_RESTORE_CORRUPTION,
                                      key="fn", count=count)])

    def test_missing_key_raises(self):
        for key in (None, ""):
            with pytest.raises(ChaosError):
                ChaosPlan([ChaosEvent(0.0, KIND_DB_TIMEOUT, key=key)])

    def test_keys_are_independent(self):
        platform = fresh_platform(FireworksPlatform)
        controller = arm(platform, (KIND_RESTORE_CORRUPTION, "a", 1))
        platform.sim.run()
        controller.check(KIND_RESTORE_CORRUPTION, "b")
        controller.check(KIND_PARAM_FETCH_TIMEOUT, "a")
        with pytest.raises(SnapshotCorruptedError):
            controller.check(KIND_RESTORE_CORRUPTION, "a")

    def test_event_dated_in_the_past_applies_at_start(self, faulty_platform):
        # Installation advanced the clock; a budget dated 0 is armed when
        # the controller starts, before the first request.
        platform, spec = faulty_platform
        assert platform.sim.now > 0.0
        HostFailureController(platform, ChaosPlan([
            ChaosEvent(0.0, KIND_RESTORE_CORRUPTION, key=spec.name)]))
        invoke_once(platform, spec.name)
        assert platform.restore_failures == 1


def _assert_failed_with(platform, excinfo, cause_type, kind):
    cause = excinfo.value.__cause__
    assert isinstance(cause, cause_type)
    assert cause.kind == kind
    assert platform.failed_invocations == [excinfo.value.failed]
    assert "injected" in excinfo.value.failed.reason


class TestRestoreRecovery:
    def test_one_corruption_is_recovered(self, faulty_platform):
        platform, spec = faulty_platform
        controller = arm(platform, (KIND_RESTORE_CORRUPTION, spec.name, 1))
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.restore_failures == 1
        assert controller.fired == {(KIND_RESTORE_CORRUPTION, spec.name): 1}
        # Recovery regenerated the snapshot (bumped generation).
        assert platform.image_for(spec.name).generation == 2

    def test_recovery_pays_regeneration_time(self, faulty_platform):
        platform, spec = faulty_platform
        clean = invoke_once(platform, spec.name)
        arm(platform, (KIND_RESTORE_CORRUPTION, spec.name, 1))
        recovered = invoke_once(platform, spec.name)
        assert recovered.startup_ms > clean.startup_ms + 300

    def test_persistent_corruption_propagates(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_RESTORE_CORRUPTION, spec.name, 5))
        with pytest.raises(InvocationFailedError) as excinfo:
            invoke_once(platform, spec.name)
        _assert_failed_with(platform, excinfo, SnapshotCorruptedError,
                            KIND_RESTORE_CORRUPTION)
        assert platform.restore_failures == \
            FireworksPlatform.MAX_RESTORE_ATTEMPTS

    def test_no_network_leak_on_failure(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_RESTORE_CORRUPTION, spec.name, 5))
        with pytest.raises(InvocationFailedError):
            invoke_once(platform, spec.name)
        assert platform.bridge.endpoint_count() == 0


class TestParamFetchRecovery:
    def test_transient_fetch_failures_retried(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_PARAM_FETCH_TIMEOUT, spec.name, 2))
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.param_fetch_retries == 2

    def test_persistent_fetch_failure_propagates(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_PARAM_FETCH_TIMEOUT, spec.name, 10))
        with pytest.raises(InvocationFailedError) as excinfo:
            invoke_once(platform, spec.name)
        _assert_failed_with(platform, excinfo, InjectedFault,
                            KIND_PARAM_FETCH_TIMEOUT)

    def test_retries_cost_time(self, faulty_platform):
        platform, spec = faulty_platform
        clean = invoke_once(platform, spec.name)
        arm(platform, (KIND_PARAM_FETCH_TIMEOUT, spec.name, 2))
        retried = invoke_once(platform, spec.name)
        assert retried.startup_ms > clean.startup_ms


class TestDbRecovery:
    """A ``db-timeout`` budget times out CouchDB requests; the guest SDK
    retries with a short backoff, surfacing the wait as a ``retry`` span."""

    @pytest.fixture
    def reminder_platform(self):
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        spec = next(s for s in chain.functions
                    if s.name == "alexa-reminder")
        install_all(platform, [spec])
        return platform, spec

    def test_transient_db_timeouts_recovered(self, reminder_platform):
        platform, spec = reminder_platform
        controller = arm(platform, (KIND_DB_TIMEOUT, REMINDER_DB, 2))
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.db_retries == 2
        assert controller.fired == {(KIND_DB_TIMEOUT, REMINDER_DB): 2}
        controller.check(KIND_DB_TIMEOUT, REMINDER_DB)  # budget spent

    def test_retry_latency_shows_as_retry_spans(self, reminder_platform):
        platform, spec = reminder_platform
        arm(platform, (KIND_DB_TIMEOUT, REMINDER_DB, 2))
        record = invoke_once(platform, spec.name)
        retries = [s for s in record.span.find_all("retry")
                   if s.attrs.get("target") == "db"]
        assert len(retries) == 2
        for span in retries:
            assert span.kind == "retry"
            assert span.duration_ms == pytest.approx(
                platform.DB_RETRY_BACKOFF_MS)

    def test_retries_cost_exec_time(self, reminder_platform):
        platform, spec = reminder_platform
        clean = invoke_once(platform, spec.name)
        arm(platform, (KIND_DB_TIMEOUT, REMINDER_DB, 1))
        retried = invoke_once(platform, spec.name)
        # The retried request pays the failed request-out leg plus the
        # backoff, inside the guest's exec window.
        assert retried.exec_ms > clean.exec_ms

    def test_persistent_db_failure_propagates(self, reminder_platform):
        platform, spec = reminder_platform
        controller = arm(platform, (KIND_DB_TIMEOUT, REMINDER_DB, 10))
        with pytest.raises(InvocationFailedError) as excinfo:
            invoke_once(platform, spec.name)
        _assert_failed_with(platform, excinfo, InjectedFault,
                            KIND_DB_TIMEOUT)
        # One fired per attempt of the first (get) request only.
        assert controller.fired[(KIND_DB_TIMEOUT, REMINDER_DB)] == \
            platform.MAX_DB_ATTEMPTS

    def test_fired_counts_exact_across_kinds(self, reminder_platform):
        platform, spec = reminder_platform
        controller = arm(platform, (KIND_DB_TIMEOUT, REMINDER_DB, 1),
                         (KIND_PARAM_FETCH_TIMEOUT, spec.name, 1))
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert controller.fired == {(KIND_DB_TIMEOUT, REMINDER_DB): 1,
                                    (KIND_PARAM_FETCH_TIMEOUT, spec.name): 1}
        targets = sorted(s.attrs["target"]
                         for s in record.span.find_all("retry"))
        assert targets == ["db", "param-fetch"]


class TestParameterStateRelease:
    """A clone that never serves its invocation takes its parameter
    topic and unfetched publish with it."""

    @staticmethod
    def _assert_released(platform, outcome):
        fc_id = outcome.span.find("publish").attrs["fc_id"]
        assert fc_id not in platform.passer._published
        assert not platform.bus.has_topic(topic_for(fc_id))

    def test_failed_restore_releases_the_clone_topic(self, faulty_platform):
        platform, spec = faulty_platform
        # Both restore attempts fail, after the arguments were published.
        arm(platform, (KIND_RESTORE_CORRUPTION, spec.name,
                       FireworksPlatform.MAX_RESTORE_ATTEMPTS))
        with pytest.raises(InvocationFailedError) as excinfo:
            invoke_once(platform, spec.name)
        self._assert_released(platform, excinfo.value.failed)

    def test_failed_fetch_releases_the_clone_topic(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_PARAM_FETCH_TIMEOUT, spec.name,
                       FireworksPlatform.MAX_PARAM_FETCH_ATTEMPTS))
        with pytest.raises(InvocationFailedError) as excinfo:
            invoke_once(platform, spec.name)
        self._assert_released(platform, excinfo.value.failed)

    def test_recovered_invocation_releases_its_clone_topic(
            self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_RESTORE_CORRUPTION, spec.name, 1))
        self._assert_released(platform, invoke_once(platform, spec.name))


def _drained_host(platform):
    """Host 0 once every pending process has run: its namespaces, routes
    and used memory."""
    platform.sim.run()
    bridge = platform.bridge
    return (len(bridge.namespaces), bridge.endpoint_count(),
            platform.host_memory.used_mb)


class TestCloneRetirement:
    """A clone whose parameter fetch fails for good is retired like one
    that served its invocation: no namespace, route or guest page
    outlives it."""

    def test_failed_fetch_retires_the_clone(self, faulty_platform):
        platform, spec = faulty_platform
        arm(platform, (KIND_PARAM_FETCH_TIMEOUT, spec.name,
                       FireworksPlatform.MAX_PARAM_FETCH_ATTEMPTS))
        with pytest.raises(InvocationFailedError):
            invoke_once(platform, spec.name)
        served = fresh_platform(FireworksPlatform)
        install_all(served, [spec])
        invoke_once(served, spec.name)
        namespaces, routes, used_mb = _drained_host(platform)
        assert (namespaces, routes) == (0, 0)
        assert used_mb == _drained_host(served)[2]
