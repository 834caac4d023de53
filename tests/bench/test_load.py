"""The open-loop load experiment: determinism, chaos, and accounting.

The serving layer's value depends on its runs being *replayable*: two
identically-seeded load runs must be byte-identical — including
under a mid-trace host crash — and every submitted request must be
accounted for exactly once (completed, shed, or failed), with no leaked
admission-queue slots or warm workers afterwards.
"""

import json

import pytest

from repro.bench.load import (LOAD_MODES, LOAD_PLATFORMS, build_load_trace,
                              run_load_platform)
from repro.bench.serialization import encode_result
from repro.chaos.plan import ChaosPlan
from repro.errors import ValidationError

# Small but non-trivial: a few hundred events, queueing visible.
SMALL = dict(n_hosts=3, n_functions=8, duration_ms=20_000.0,
             popular_interarrival_ms=100.0, seed=7)


def _canonical(outcome) -> bytes:
    """One outcome's canonical JSON bytes."""
    return json.dumps(encode_result(outcome), sort_keys=True,
                      separators=(",", ":")).encode()


class TestSeededDeterminism:
    def test_two_identical_seeds_are_byte_identical(self):
        first = run_load_platform("fireworks", "predictive", **SMALL)
        second = run_load_platform("fireworks", "predictive", **SMALL)
        assert _canonical(first) == _canonical(second)

    def test_different_seeds_differ(self):
        first = run_load_platform("fireworks", "predictive", **SMALL)
        changed = dict(SMALL, seed=8)
        second = run_load_platform("fireworks", "predictive", **changed)
        assert _canonical(first) != _canonical(second)


class TestChaosCrashMidTrace:
    """One host dies mid-trace; the run stays deterministic and clean."""

    # Host 2 is the hash home of every function in the SMALL config —
    # crashing it mid-trace displaces queued and in-flight work.
    PLAN_KW = dict(at_ms=8_000.0, host_id=2)

    def _run(self):
        plan = ChaosPlan.single_crash(**self.PLAN_KW)
        return run_load_platform("fireworks", "predictive",
                                 chaos_plan=plan, return_platform=True,
                                 **SMALL)

    def test_chaos_run_is_byte_identical_across_runs(self):
        first, _ = self._run()
        second, _ = self._run()
        assert _canonical(first) == _canonical(second)

    def test_every_submission_is_accounted_exactly_once(self):
        outcome, platform = self._run()
        assert outcome.requests > 0
        assert outcome.completed + outcome.shed + outcome.failed \
            == outcome.requests
        assert outcome.completed == len(platform.records)
        assert outcome.failed == len(platform.failed_invocations)
        assert outcome.shed == len(platform.shedded_invocations)

    def test_no_leaked_queue_slots_or_warm_workers(self):
        _, platform = self._run()
        crashed = platform.cluster.host(self.PLAN_KW["host_id"])
        assert crashed.down
        # The drained run left no queued waiter anywhere, no busy slot,
        # and the dead host's warm pool is empty.
        now = platform.sim.now
        for host in platform.cluster.hosts:
            if host.admission is not None:
                assert host.admission.depth == 0
            assert host.active == 0
        assert crashed.pool.live_entries(now) == []
        assert crashed.pool.drain_all() == []
        # Queued work displaced by the crash failed over or failed
        # loudly; silent loss would show up as an accounting gap above.
        flushed = (crashed.admission.flushed_down
                   if crashed.admission is not None else 0)
        assert flushed >= 0

    def test_crash_actually_disrupted_the_run(self):
        plain = run_load_platform("fireworks", "predictive", **SMALL)
        disrupted, _ = self._run()
        assert _canonical(plain) != _canonical(disrupted)


class TestOutcomeShape:
    def test_registry_covers_all_platforms_and_modes(self):
        assert set(LOAD_PLATFORMS) == {"fireworks", "openwhisk",
                                       "firecracker", "gvisor", "catalyzer"}
        assert LOAD_MODES == ("none", "reactive", "predictive")

    def test_trace_is_seed_deterministic(self):
        first = build_load_trace(8, 20_000.0, 7)
        second = build_load_trace(8, 20_000.0, 7)
        assert first == second

    def test_unknown_platform_or_mode_raises(self):
        with pytest.raises(KeyError):
            run_load_platform("nope", "none", **SMALL)
        with pytest.raises(ValidationError, match="registered"):
            run_load_platform("fireworks", "sometimes", **SMALL)

    def test_rates_and_shares_are_bounded(self):
        outcome = run_load_platform("fireworks", "none", **SMALL)
        assert 0.0 <= outcome.shed_rate <= 1.0
        assert 0.0 <= outcome.goodput <= 1.0
        assert 0.0 <= outcome.cold_start_share <= 1.0
        assert outcome.as_line()
