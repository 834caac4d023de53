"""Unit tests for the chaos experiment's replay loop: the latencies,
failures and recovery time it reads off the invocations it runs itself."""

import pytest

from repro.bench import fresh_platform, install_all
from repro.bench.chaos import _chaos_replay
from repro.core import FireworksPlatform
from repro.workloads import faasdom_spec
from repro.workloads.generator import TraceEvent


@pytest.fixture
def platform():
    platform = fresh_platform(FireworksPlatform)
    install_all(platform, [faasdom_spec("faas-netlatency", "nodejs")])
    return platform


FN = "faas-netlatency-nodejs"


def _trace(platform, *offsets_ms):
    start = platform.sim.now
    return [TraceEvent(start + offset, FN) for offset in offsets_ms]


class TestChaosReplay:
    def test_latencies_are_every_completion_in_order(self, platform):
        latencies, failed, _ = _chaos_replay(
            platform, _trace(platform, 0.0, 50.0, 100.0), crash_at_ms=0.0)
        assert failed == 0
        assert latencies == [record.total_ms for record in platform.records]

    def test_recovery_is_the_first_completion_after_the_crash(self,
                                                               platform):
        trace = _trace(platform, 0.0, 50.0, 100.0, 150.0)
        crash_at_ms = trace[1].at_ms + 1.0
        _, _, recovery_ms = _chaos_replay(platform, trace, crash_at_ms)
        # Below the trace bound the platform keeps every record, so the
        # kept records are an oracle for the replay's own.
        after = [record.completed_ms for record in platform.records
                 if record.submitted_ms >= crash_at_ms]
        assert len(after) == 2
        assert recovery_ms == min(after) - crash_at_ms

    def test_no_request_after_the_crash_reads_minus_one(self, platform):
        trace = _trace(platform, 0.0, 50.0)
        _, _, recovery_ms = _chaos_replay(platform, trace,
                                          trace[-1].at_ms + 1.0)
        assert recovery_ms == -1.0
