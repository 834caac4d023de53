"""The retry loop: bounded budget, exponential backoff, seeded jitter."""

import dataclasses

import pytest

from repro.config import default_parameters
from repro.errors import InvocationFailedError, NoHostAvailableError
from repro.trace import render_tree

from tests.chaos.helpers import FN, build_fireworks, crash_all_hosts
from tests.helpers import failed_tree, hosts_tried


def _params_with_attempts(max_attempts):
    resolved = default_parameters()
    return dataclasses.replace(
        resolved, cluster=dataclasses.replace(
            resolved.cluster, retry_max_attempts=max_attempts))


def _exhaust(max_attempts=None, seed=7):
    """Kill every host, invoke once, and return (platform, the
    InvocationFailedError, the failed invocation's span tree)."""
    params = (None if max_attempts is None
              else _params_with_attempts(max_attempts))
    platform = build_fireworks(seed=seed, params=params)
    crash_all_hosts(platform)
    sim = platform.sim
    with pytest.raises(InvocationFailedError) as excinfo:
        sim.run(sim.process(platform.invoke(FN)))
    sim.run()
    return (platform, excinfo.value,
            failed_tree(platform, excinfo.value))


class TestRetryBudget:
    def test_budget_exhaustion_surfaces_failed_invocation(self):
        platform, failed, tree = _exhaust()
        assert failed.attempts == platform.params.cluster.retry_max_attempts
        assert platform.ledger.failed == 1
        assert "all invokers at capacity" in failed.reason
        # Placement never chose a host: every attempt died before it.
        assert hosts_tried(tree) == []
        assert tree.duration_ms > 0.0
        assert tree.attrs["error"] == "NoHostAvailableError"
        assert platform.retries == failed.attempts - 1
        # The failure was not billed as a completion.
        assert platform.ledger.completed == platform.ledger.billed_ms == 0

    def test_budget_is_configurable(self):
        _, failed, tree = _exhaust(max_attempts=5)
        assert failed.attempts == 5
        assert len(tree.find_all("retry")) == 4

    def test_no_host_available_is_retryable(self):
        # The class contract the loop depends on.
        from repro.errors import PlatformError, RetryableChaosError
        assert issubclass(NoHostAvailableError, RetryableChaosError)
        assert issubclass(NoHostAvailableError, PlatformError)


class TestBackoff:
    def test_backoff_is_monotone_and_bounded(self):
        platform, _, tree = _exhaust(max_attempts=6)
        cfg = platform.params.cluster
        delays = [span.duration_ms for span in tree.find_all("retry")]
        assert len(delays) == 5
        for earlier, later in zip(delays, delays[1:]):
            assert earlier < later
        low = cfg.retry_base_ms * (1.0 - cfg.retry_jitter_frac)
        high = cfg.retry_cap_ms * (1.0 + cfg.retry_jitter_frac)
        assert all(low <= delay <= high for delay in delays)
        # Jitter is real: delays are not the bare exponential ladder.
        bare = [min(cfg.retry_cap_ms,
                    cfg.retry_base_ms * cfg.retry_backoff_factor ** i)
                for i in range(5)]
        assert delays != bare

    def test_retry_spans_carry_attempt_and_error(self):
        _, _, tree = _exhaust()
        for index, span in enumerate(tree.find_all("retry"), start=1):
            assert span.kind == "retry"
            assert span.attrs["target"] == "invoke"
            assert span.attrs["attempt"] == index
            assert span.attrs["error"] == "NoHostAvailableError"

    def test_jitter_is_seed_deterministic(self):
        trees = []
        for _ in range(2):
            trees.append(render_tree(_exhaust(max_attempts=6)[2]))
        assert trees[0] == trees[1]

    def test_different_seeds_jitter_differently(self):
        trees = [_exhaust(max_attempts=6, seed=seed)[2] for seed in (7, 8)]
        delays = [[span.duration_ms for span in tree.find_all("retry")]
                  for tree in trees]
        assert delays[0] != delays[1]
