"""Warm-pool autoscaler engine tests, incl. the chaos-down regression.

Regression background: the autoscaler used to provision warm workers
onto hosts the chaos controller had marked down — the workers booted,
parked into a pool that was drained at crash time, and leaked.  The fix
is two-layered: built-in policies drop targets for down home hosts, and
the engine's :meth:`WarmPoolAutoscaler._ensure_warm` backstop refuses
down hosts no matter what the policy (or a stale ``on_warm_taken``
target read) asked for.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.autoscale.scaler import WarmPoolAutoscaler
from repro.bench.harness import fresh_cluster_platform, install_all
from repro.chaos import (KIND_PARAM_FETCH_TIMEOUT, KIND_RESTORE_CORRUPTION,
                         ChaosEvent, ChaosPlan, HostFailureController)
from repro.core.fireworks import FireworksPlatform
from repro.errors import InvocationFailedError
from repro.workloads.faasdom import faasdom_spec

FUNCTION = "scaler-fn"


def _specs(names):
    base = faasdom_spec("faas-netlatency", "nodejs")
    return [dataclasses.replace(base, name=name) for name in names]


def _predictive_platform(n_hosts=3):
    platform = fresh_cluster_platform(FireworksPlatform, n_hosts=n_hosts,
                                      capacity_per_host=4)
    install_all(platform, _specs([FUNCTION]))
    start = platform.sim.now
    scaler = WarmPoolAutoscaler(platform, mode="predictive",
                                until_ms=start + 20_000.0)
    # A steady 500 ms cadence: well inside the predictive horizon, past
    # the histogram warm-up, so the policy wants warm workers on the
    # function's home host every tick.
    for i in range(8):
        scaler.observe_arrival(FUNCTION, start + 500.0 * i)
    return platform, scaler, start


class TestChaosDownRegression:
    def test_no_provisioning_onto_a_down_home_host(self):
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        home.down = True
        platform.sim.run(until=start + 4_500.0)   # two control ticks
        assert scaler.ticks >= 2
        assert scaler.provisioned == 0
        assert all(host_id != home.host_id
                   for host_id, _fn in scaler.targets)

    def test_positive_control_provisions_once_host_is_back(self):
        # Same setup, host healthy again: the zero above must be the
        # down-flag, not a policy that never wanted workers.
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        home.down = True
        platform.sim.run(until=start + 4_500.0)
        assert scaler.provisioned == 0
        home.down = False
        for i in range(4):
            scaler.observe_arrival(FUNCTION,
                                   platform.sim.now + 500.0 * i)
        platform.sim.run(until=start + 9_000.0)
        assert scaler.provisioned > 0
        assert (home.host_id, FUNCTION) in scaler.targets

    def test_ensure_warm_backstop_refuses_down_hosts(self):
        # Even a direct (policy-bypassing) request must be a no-op on a
        # down host — this is the on_warm_taken stale-target path.
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        home.down = True
        scaler._ensure_warm(FUNCTION, home, 3, platform.sim.now)
        assert scaler.provisioned == 0
        assert scaler.pending_total() == 0
        assert (home.host_id, FUNCTION) not in scaler.targets


class TestScalerEngine:
    def test_none_policy_never_ticks(self):
        platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2,
                                          capacity_per_host=4)
        install_all(platform, _specs([FUNCTION]))
        scaler = WarmPoolAutoscaler(platform, mode="none")
        platform.sim.run()
        assert scaler.ticks == 0
        assert scaler.provisioned == 0

    def test_active_policy_requires_until_ms(self):
        from repro.errors import PlatformError
        platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2,
                                          capacity_per_host=4)
        install_all(platform, _specs([FUNCTION]))
        with pytest.raises(PlatformError, match="until_ms"):
            WarmPoolAutoscaler(platform, mode="reactive")

    def test_dsl_policy_reports_dsl_source(self):
        from repro.bench.search import autoscale_reactive_doc
        platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2,
                                          capacity_per_host=4)
        install_all(platform, _specs([FUNCTION]))
        scaler = WarmPoolAutoscaler(
            platform, until_ms=platform.sim.now + 1_000.0,
            policy=autoscale_reactive_doc("dsl-step", 1.0))
        assert scaler.policy_source == "dsl"
        assert scaler.mode == "dsl-step"

    def test_builtin_policy_reports_builtin_source(self):
        platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2,
                                          capacity_per_host=4)
        install_all(platform, _specs([FUNCTION]))
        scaler = WarmPoolAutoscaler(platform, mode="none")
        assert scaler.policy_source == "builtin"
        assert scaler.mode == "none"


def _arm_now(platform, kind, count):
    """Attach a controller arming *count* *kind* faults for FUNCTION."""
    HostFailureController(platform, ChaosPlan([ChaosEvent(
        platform.sim.now, kind, key=FUNCTION, count=count)]))


class TestPlanFaultsOnThePool:
    """Budgeted plan faults on the warm-pool paths: a pooled clone
    retries its parameter fetch like a cold one, and a corrupted restore
    during provisioning costs one clone, never the run."""

    def test_pooled_clone_retries_a_failed_param_fetch(self):
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        sim = platform.sim
        sim.run(until=start + 2_500.0)   # one tick parks two clones
        assert home.pool.size(FUNCTION, sim.now) == 2
        _arm_now(platform, KIND_PARAM_FETCH_TIMEOUT, 1)
        record = sim.run(sim.process(platform.invoke(FUNCTION)))
        assert record.mode == "warm"
        assert platform.pool_hits == 1
        assert platform.param_fetch_retries == 1
        assert platform.failed_invocations == []
        sim.run()

    def test_pooled_clone_retired_when_its_fetch_fails_for_good(self):
        def drained_home(fail):
            platform, _scaler, start = _predictive_platform()
            home = platform.cluster.home_host(FUNCTION)
            sim = platform.sim
            sim.run(until=start + 2_500.0)   # one tick parks two clones
            if fail:
                _arm_now(platform, KIND_PARAM_FETCH_TIMEOUT,
                         FireworksPlatform.MAX_PARAM_FETCH_ATTEMPTS)
                with pytest.raises(InvocationFailedError):
                    sim.run(sim.process(platform.invoke(FUNCTION)))
            else:
                assert sim.run(sim.process(
                    platform.invoke(FUNCTION))).mode == "warm"
            sim.run()
            return (len(home.bridge.namespaces),
                    home.bridge.endpoint_count(), home.memory.used_mb)

        assert drained_home(fail=True) == drained_home(fail=False)

    def test_one_corrupted_provision_is_counted_and_reprovisioned(self):
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        sim = platform.sim
        _arm_now(platform, KIND_RESTORE_CORRUPTION, 1)
        sim.run(until=start + 2_500.0)
        assert scaler.provision_failures == 1
        assert scaler.pending_total() == 0
        sim.run(until=start + 4_500.0)   # the next tick tops the pool up
        assert home.pool.size(FUNCTION, sim.now) == 2
        record = sim.run(sim.process(platform.invoke(FUNCTION)))
        assert record.mode == "warm"
        assert platform.pool_hits == 1
        sim.run()
        assert scaler.provision_failures == 1

    def test_persistent_corruption_parks_nothing(self):
        platform, scaler, start = _predictive_platform()
        home = platform.cluster.home_host(FUNCTION)
        sim = platform.sim
        _arm_now(platform, KIND_RESTORE_CORRUPTION, 5)
        sim.run(until=start + 4_500.0)   # two ticks, two clones each
        assert scaler.provision_failures == 4
        assert scaler.parked == 0
        assert home.pool.size(FUNCTION, sim.now) == 0
        # The fifth corruption hits the cold path, which regenerates.
        record = sim.run(sim.process(platform.invoke(FUNCTION)))
        assert record.mode == "snapshot"
        assert platform.pool_hits == 0
        assert platform.restore_failures == 1
        sim.run()
