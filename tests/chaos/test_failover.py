"""Host-crash failover: retries land the request on a surviving host."""

import pytest

from repro.bench import fresh_cluster_platform, install_all, invoke_once
from repro.chaos import (KIND_HOST_CRASH, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.platforms import FirecrackerPlatform
from repro.trace import verify_invocation

from tests.chaos.helpers import (FN, SEED, SPEC, build_fireworks,
                                 run_crash_during, scenario_fingerprint)
from tests.helpers import drained_host, failed_tree, hosts_tried


class TestCrashBetweenInvocations:
    """The simple case: the host dies while no request is in flight."""

    def _run(self):
        platform = build_fireworks()
        first = invoke_once(platform, FN)
        crashed = first.host_id
        now = platform.sim.now
        plan = ChaosPlan([ChaosEvent(now + 10.0, KIND_HOST_CRASH,
                                     host_id=crashed)])
        controller = HostFailureController(platform, plan)
        platform.sim.run(until=now + 20.0)
        second = invoke_once(platform, FN)
        platform.sim.run()
        return platform, controller, first, second

    def test_placement_moves_off_the_dead_host(self):
        platform, controller, first, second = self._run()
        assert second.host_id != first.host_id
        assert controller.hosts_down() == (first.host_id,)
        # Placement alone reroutes: no in-flight request, so no retries.
        assert platform.retries == 0
        assert platform.failovers == 0
        assert platform.ledger.failed == 0

    def test_crashed_host_state_is_gone(self):
        platform, _, first, _ = self._run()
        crashed = platform.cluster.host(first.host_id)
        assert crashed.down
        assert not crashed.has_room
        assert crashed.store.contains(FN) is False
        assert crashed.pool.live_entries(platform.sim.now) == []

    def test_two_runs_identical(self):
        runs = []
        for _ in range(2):
            platform, controller, _, second = self._run()
            runs.append(scenario_fingerprint(platform, controller, second))
        assert runs[0] == runs[1]


class TestCrashDuringRestore:
    """The host dies mid-restore: the attempt is lost at the stage
    boundary, the retry fails over, and (with failover on) Fireworks
    regenerates the snapshot whose only replica died."""

    def test_failover_regenerates_on_surviving_host(self):
        platform, controller, record = run_crash_during("restore",
                                                        failover=True)
        crashed = controller.log[0].host_id
        assert record.host_id != crashed
        assert record.attempts == 2
        assert platform.retries == 1
        assert platform.failovers == 1
        assert platform.regenerations == 1
        # The record is a first-class success: spans verify like any other.
        verify_invocation(record)
        root = record.span
        failover = root.find("failover")
        assert failover is not None
        assert failover.attrs["from_host"] == crashed
        assert failover.duration_ms == 0.0
        retry = root.find("retry")
        assert retry.attrs["error"] == "HostDownError"
        assert root.find("regenerate") is not None

    def test_without_failover_the_function_is_unavailable(self):
        platform, controller, result = run_crash_during("restore",
                                                        failover=False)
        assert isinstance(result, InvocationFailedError)
        assert platform.ledger.failed == 1
        crashed = controller.log[0].host_id
        # The retry still reroutes, but the replica is simply gone.
        assert platform.failovers == 1
        assert platform.regenerations == 0
        assert crashed in hosts_tried(failed_tree(platform, result))
        assert "snapshot" in result.reason.lower()

    def test_two_runs_identical(self):
        runs = [scenario_fingerprint(*run_crash_during("restore"))
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestCrashDuringExec:
    """At-most-once: a host that dies after the function ran must not be
    retried (the execution may have had effects)."""

    def test_execution_lost_is_not_retried(self):
        platform, controller, result = run_crash_during("exec")
        assert isinstance(result, InvocationFailedError)
        assert result.attempts == 1
        assert platform.retries == 0
        assert platform.failovers == 0
        assert "host" in result.reason and "lost" in result.reason
        del controller

    def test_two_runs_identical(self):
        runs = [scenario_fingerprint(*run_crash_during("exec"))
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestCrashDrainsThePool:
    """A crash tears each pooled sandbox down through its backend's own
    teardown, so its namespace and route go with it."""

    @pytest.mark.parametrize("platform_cls",
                             [FirecrackerPlatform, FireworksPlatform])
    def test_pooled_sandbox_gives_back_its_network(self, platform_cls):
        platform = fresh_cluster_platform(platform_cls, seed=SEED,
                                          n_hosts=2)
        install_all(platform, [SPEC])
        sim, host = platform.sim, platform.cluster.home_host(FN)
        entry = sim.run(sim.process(platform.provision_warm_on(SPEC, host)))
        host.pool.add(FN, entry)
        assert host.bridge.endpoint_count() == 1
        HostFailureController(platform, ChaosPlan([ChaosEvent(
            sim.now, KIND_HOST_CRASH, host_id=host.host_id)]))
        # The crash also cleared the host's snapshot store.
        assert drained_host(platform, host) == (0, 0, 0.0)
