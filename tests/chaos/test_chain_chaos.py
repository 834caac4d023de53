"""Chaos regression tests for the chain executor.

Two guarantees, each locked with a calibration run (the same seeded
platform with no chaos attached reads off exactly *when* the target
stage or trigger happens, then the fault is aimed into that window):

* a host crash mid-DAG fails the in-flight stage over to a surviving
  host without ever double-executing a completed stage — the at-most-once
  ledger stays all ones and retries live inside ``platform.invoke``;
* a partitioned message bus at trigger firing time surfaces as a
  :class:`FailedInvocation` on the platform (the trigger segment fails,
  downstream stages abort) — never as a hang.
"""

import pytest

from repro.bench import fresh_cluster_platform
from repro.chaos import (KIND_BUS_PARTITION, KIND_HOST_CRASH, ChaosEvent,
                         ChaosPlan, HostFailureController)
from repro.core import FireworksPlatform
from repro.platforms import FirecrackerPlatform
from repro.platforms.chains import (MODE_GUEST, MODE_ORCHESTRATED,
                                    STATUS_ABORTED, STATUS_OK,
                                    ChainExecutor)
from repro.workloads import DagEdge, DagStage, data_analysis_dag, faasdom_spec
from repro.workloads.dag import make_dag

from tests.helpers import invoke_roots, outcome_of

SEED = 7

_SPECS = [faasdom_spec("faas-fact", "nodejs"),
          faasdom_spec("faas-diskio", "nodejs"),
          faasdom_spec("faas-netlatency", "nodejs")]


def _pipeline_dag():
    """first -> mid -> last, orchestrated on every backend (no guest
    hops), with three distinct functions so stage windows are distinct."""
    stages = [DagStage("first", _SPECS[0].name),
              DagStage("mid", _SPECS[1].name),
              DagStage("last", _SPECS[2].name)]
    edges = [DagEdge("first", "mid"), DagEdge("mid", "last")]
    return make_dag("crash-pipeline", "first", stages, edges,
                    functions=_SPECS)


def _cluster(platform_cls, seed=SEED):
    return fresh_cluster_platform(platform_cls, seed=seed, n_hosts=2)


def _invocations_of(platform, function):
    """The kept root ``invoke`` spans of *function*, in order."""
    return [root for root in invoke_roots(platform)
            if root.attrs["function"] == function]


def _run_pipeline(platform):
    executor = ChainExecutor(platform)
    dag = _pipeline_dag()
    executor.install(dag)
    run = executor.run(dag, {})
    platform.sim.run()
    return executor, run


class TestCrashMidDag:
    def _crash_run(self, seed=SEED):
        # Calibration: when does the middle stage *restore*?  A crash
        # during startup is the retryable window — once the function has
        # executed, a crash is deliberately not retried
        # (ExecutionLostError: re-running would execute twice).
        _, clean = _run_pipeline(_cluster(FireworksPlatform, seed))
        mid = clean.stages["mid"]
        assert mid.status == STATUS_OK
        restore = mid.record.span.find("restore")
        assert restore is not None
        crash_at = (restore.start_ms + restore.end_ms) / 2.0
        # Same seed, same timeline, crash aimed mid-stage.
        platform = _cluster(FireworksPlatform, seed)
        plan = ChaosPlan([ChaosEvent(crash_at, KIND_HOST_CRASH,
                                     host_id=mid.host_id)])
        controller = HostFailureController(platform, plan, failover=True)
        executor, run = _run_pipeline(platform)
        return clean, platform, controller, run

    def test_failover_without_double_execution(self):
        clean, platform, controller, run = self._crash_run()
        assert run.mode == MODE_ORCHESTRATED
        assert run.status == "ok"
        # The crashed attempt retried and landed on the surviving host.
        crashed = controller.log[0].host_id
        mid = run.stages["mid"]
        assert mid.host_id != crashed
        assert mid.attempts == 2
        assert platform.retries == 1
        assert platform.failovers == 1
        # At-most-once: the ledger never exceeds one dispatch per stage,
        # and each stage's function was invoked exactly once.
        assert run.ledger == {"first": 1, "mid": 1, "last": 1}
        for spec in _SPECS:
            roots = _invocations_of(platform, spec.name)
            assert [outcome_of(root) for root in roots] == ["completed"]
        # Retries live inside platform.invoke: the DAG saw one dispatch.
        assert run.stages["first"].end_ms <= mid.start_ms
        assert mid.end_ms > clean.stages["mid"].end_ms

    def test_two_crash_runs_identical(self):
        fingerprints = []
        for _ in range(2):
            _, platform, controller, run = self._crash_run()
            fingerprints.append((
                run.ledger,
                [(r.stage, r.start_ms, r.end_ms, r.host_id, r.attempts)
                 for r in run.executed()],
                platform.retries, platform.failovers,
                [(e.at_ms, e.kind, e.host_id) for e in controller.log]))
        assert fingerprints[0] == fingerprints[1]


class TestPartitionedTrigger:
    def _partition_run(self, platform_cls, seed=SEED):
        # Calibration: when does the db trigger fire the analyze stage?
        platform = _cluster(platform_cls, seed)
        executor = ChainExecutor(platform)
        dag = data_analysis_dag()
        executor.install(dag)
        clean = executor.run(dag, {})
        platform.sim.run()
        fired = _invocations_of(platform, "da-analyze")
        assert len(fired) == 1
        fire_ms = fired[0].start_ms
        # Same seed; the bus is unreachable for the whole retry horizon.
        platform = _cluster(platform_cls, seed)
        plan = ChaosPlan([ChaosEvent(max(0.0, fire_ms - 0.5),
                                     KIND_BUS_PARTITION,
                                     duration_ms=600_000.0)])
        HostFailureController(platform, plan)
        executor = ChainExecutor(platform)
        executor.install(dag)
        run = executor.run(dag, {})
        platform.sim.run()  # must drain: a hang here fails the test
        return clean, platform, executor, run

    @pytest.mark.parametrize("platform_cls,mode", [
        (FireworksPlatform, MODE_GUEST),
        (FirecrackerPlatform, MODE_ORCHESTRATED),
    ], ids=["fireworks-guest", "firecracker-orchestrated"])
    def test_partition_surfaces_as_failed_invocation(self, platform_cls,
                                                     mode):
        clean, platform, executor, run = self._partition_run(platform_cls)
        assert run.mode == mode
        # The executor-driven part of the DAG is untouched...
        assert run.status == "ok"
        # ...the firing failed loudly on the platform: a failed
        # invocation after the full retry budget, not a hang.
        [fired] = _invocations_of(platform, "da-analyze")
        assert outcome_of(fired) == "failed"
        assert fired.attrs["error"] == "BusPartitionedError"
        assert len(fired.find_all("retry")) + 1 == \
            platform.params.cluster.retry_max_attempts
        assert platform.ledger.failed == 1
        if mode == MODE_ORCHESTRATED:
            # The trigger segment recorded the failure and aborted its
            # downstream stage — and never re-dispatched anything.
            [segment] = executor.trigger_runs
            assert segment.failed
            assert segment.ledger == {"analyze": 1}
            assert segment.stages["stats"].status == STATUS_ABORTED

    def test_two_partition_runs_identical(self):
        fingerprints = []
        for _ in range(2):
            _, platform, _, _ = self._partition_run(FirecrackerPlatform)
            fingerprints.append((
                platform.sim.now, platform.retries,
                [(root.attrs["function"], len(root.find_all("retry")),
                  root.end_ms) for root in invoke_roots(platform)
                 if outcome_of(root) == "failed"]))
        assert fingerprints[0] == fingerprints[1]
