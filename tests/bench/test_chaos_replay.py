"""Unit tests for the closed-loop trace replay (``harness.replay``) and
the chaos experiment's recovery time, read off the records it returns."""

import pytest

from repro.bench import fresh_platform, install_all
from repro.bench.chaos import recovery_ms
from repro.bench.harness import replay
from repro.chaos import (KIND_HOST_CRASH, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.workloads import faasdom_spec
from repro.workloads.generator import TraceEvent

from tests.helpers import invoke_roots


@pytest.fixture
def platform():
    platform = fresh_platform(FireworksPlatform)
    install_all(platform, [faasdom_spec("faas-netlatency", "nodejs")])
    return platform


FN = "faas-netlatency-nodejs"


def _trace(platform, *offsets_ms):
    start = platform.sim.now
    return [TraceEvent(start + offset, FN) for offset in offsets_ms]


class TestReplay:
    def test_records_are_every_completion_in_order(self, platform):
        records = replay(platform, _trace(platform, 0.0, 50.0, 100.0))
        assert platform.ledger.failed == 0
        # The ledger folds every completion in order: an oracle for the
        # replay's own records.
        assert [record.total_ms for record in records] == \
            list(platform.ledger.total_ms)
        assert len(records) == 3

    def test_a_failure_under_chaos_returns_no_record(self, platform):
        trace = _trace(platform, 0.0, 50.0, 100.0)
        host_id = platform.cluster.hosts[0].host_id
        HostFailureController(platform, ChaosPlan([ChaosEvent(
            trace[1].at_ms - 1.0, KIND_HOST_CRASH, host_id=host_id)]))
        records = replay(platform, trace)
        assert [record.submitted_ms for record in records] == \
            [trace[0].at_ms]
        assert platform.ledger.failed == 2
        assert platform.ledger.completed == 1


class TestRecovery:
    def test_recovery_is_the_first_completion_after_the_crash(self,
                                                              platform):
        trace = _trace(platform, 0.0, 50.0, 100.0, 150.0)
        crash_at_ms = trace[1].at_ms + 1.0
        records = replay(platform, trace)
        after = [root.end_ms for root in invoke_roots(platform)
                 if root.start_ms >= crash_at_ms]
        assert len(after) == 2
        assert recovery_ms(records, crash_at_ms) == min(after) - crash_at_ms

    def test_no_request_after_the_crash_reads_minus_one(self, platform):
        trace = _trace(platform, 0.0, 50.0)
        records = replay(platform, trace)
        assert recovery_ms(records, trace[-1].at_ms + 1.0) == -1.0
