"""Differential + integration tests for the chain executor.

The differential suite is the proof object for the executor's central
byte-identity claims:

* a single-stage DAG driven orchestrated is indistinguishable (same
  simulated events, same trace, same clock) from calling
  ``platform.invoke`` directly;
* a guest-hopping linear DAG on a chain-capable backend is
  indistinguishable from the paper's §5.3 chain invocation (the Fig 9
  golden hash rides on this).

The integration half proves the headline: all five backends execute the
ServerlessBench DAGs through the one shared executor.
"""

import json
import re

import pytest

from repro.bench import fresh_platform, install_chain, invoke_once
from repro.bench.load import LOAD_PLATFORMS
from repro.platforms.chains import (MODE_GUEST, MODE_ORCHESTRATED,
                                    STATUS_OK, STATUS_SKIPPED,
                                    ChainExecutor)
from repro.trace.export import to_chrome_trace
from repro.workloads import (DagEdge, DagStage, alexa_skills_chain,
                             alexa_skills_dag, data_analysis_dag,
                             faasdom_spec, make_dag)
from tests.helpers import invoked_functions, run_dag_once

_OVERLAY_CATS = ("chain", "stage", "db-trigger")


def _base_trace(platform):
    """The exported trace minus the retrospective overlay spans — the
    byte-identity comparison object.  VM identifiers derive from object
    addresses (nondeterministic by design), so hex runs are masked."""
    doc = to_chrome_trace(platform.sim.tracer.traces())
    doc["traceEvents"] = [ev for ev in doc["traceEvents"]
                          if ev.get("cat") not in _OVERLAY_CATS]
    text = json.dumps(doc, sort_keys=True, default=str)
    return re.sub(r"[0-9a-f]{8,}", "ADDR", text)


def _single_stage_dag(spec):
    return make_dag("solo", "only", [DagStage("only", spec.name)],
                    functions=[spec])


@pytest.mark.parametrize("platform_name", sorted(LOAD_PLATFORMS))
class TestDifferential:
    def test_single_stage_dag_matches_plain_invoke(self, platform_name):
        """Orchestrated single-stage run == plain invocation, byte for
        byte: same record timings, same trace, same final clock."""
        spec = faasdom_spec("faas-fact", "nodejs")
        plain = fresh_platform(LOAD_PLATFORMS[platform_name])
        import repro.bench.harness as harness
        harness.install_all(plain, [spec])
        record = invoke_once(plain, spec.name)
        plain.sim.run()

        dagged = fresh_platform(LOAD_PLATFORMS[platform_name])
        run = run_dag_once(dagged, _single_stage_dag(spec), {},
                           mode=record.mode)
        dagged.sim.run()

        assert run.status == "ok"
        stage = run.stages["only"]
        assert stage.record is not None
        assert stage.record.total_ms == record.total_ms
        assert stage.record.mode == record.mode
        assert dagged.sim.now == plain.sim.now
        assert _base_trace(dagged) == _base_trace(plain)


class TestFig9Differential:
    @pytest.mark.parametrize("platform_name", ["openwhisk", "fireworks"])
    def test_linear_guest_dag_matches_chain_invocation(self,
                                                       platform_name):
        """The Alexa DAG through the executor reproduces the plain
        §5.3 chain invocation byte for byte (the Fig 9 path)."""
        chain = alexa_skills_chain()
        plain = fresh_platform(LOAD_PLATFORMS[platform_name])
        install_chain(plain, chain)
        record = invoke_once(plain, chain.entry,
                             payload={"skill": "fact"})
        plain.sim.run()

        dagged = fresh_platform(LOAD_PLATFORMS[platform_name])
        run = run_dag_once(dagged, alexa_skills_dag(),
                           {"skill": "fact"})
        dagged.sim.run()

        assert run.mode == MODE_GUEST
        assert run.entry_record is not None
        assert [r.function for r in run.records()] == \
            [r.function for r in record.chain_records()]
        assert run.entry_record.chain_total_ms() == \
            record.chain_total_ms()
        assert dagged.sim.now == plain.sim.now
        assert _base_trace(dagged) == _base_trace(plain)


@pytest.mark.parametrize("platform_name", sorted(LOAD_PLATFORMS))
class TestAllBackends:
    def test_alexa_dag_executes(self, platform_name):
        platform = fresh_platform(LOAD_PLATFORMS[platform_name])
        run = run_dag_once(platform, alexa_skills_dag(),
                           {"skill": "reminder"})
        platform.sim.run()
        expected_mode = MODE_GUEST if platform.supports_chains \
            else MODE_ORCHESTRATED
        assert run.mode == expected_mode
        assert run.status == "ok"
        assert run.ledger == {"frontend": 1, "reminder": 1}
        executed = {r.stage: r.status for r in run.executed()}
        assert executed == {"frontend": STATUS_OK, "reminder": STATUS_OK}
        # The skills the frontend did not select never ran.
        for name in ("fact", "smarthome"):
            assert run.stages[name].status == STATUS_SKIPPED
            assert name not in run.ledger

    def test_data_analysis_trigger_segment_fires(self, platform_name):
        platform = fresh_platform(LOAD_PLATFORMS[platform_name])
        executor = ChainExecutor(platform)
        dag = data_analysis_dag()
        executor.install(dag)
        run = executor.run(dag, {})
        platform.sim.run()
        assert run.status == "ok"
        # The executor drives input -> format; the db trigger fires
        # analyze -> stats after the wages write.
        assert set(run.ledger) == {"input", "format"}
        assert invoked_functions(platform).count("da-analyze") == 1
        if run.mode == MODE_ORCHESTRATED:
            segment = executor.trigger_runs
            assert len(segment) == 1
            assert segment[0].root == "analyze"
            assert segment[0].trigger_database
            assert set(segment[0].ledger) == {"analyze", "stats"}
            assert all(count == 1
                       for count in segment[0].ledger.values())
        else:
            assert executor.trigger_runs == []
            [record] = executor.trigger_records
            assert [r.function for r in record.chain_records()] == \
                ["da-analyze", "da-stats"]


class TestExecutorSemantics:
    def _fan_dag(self):
        specs = [faasdom_spec("faas-fact", "nodejs"),
                 faasdom_spec("faas-matrix-mult", "nodejs"),
                 faasdom_spec("faas-diskio", "nodejs"),
                 faasdom_spec("faas-gzip", "nodejs")]
        stages = [DagStage("a", specs[0].name),
                  DagStage("b", specs[1].name),
                  DagStage("c", specs[2].name),
                  DagStage("d", specs[3].name)]
        edges = [DagEdge("a", "b"), DagEdge("a", "c"),
                 DagEdge("b", "d"), DagEdge("c", "d")]
        return make_dag("fan", "a", stages, edges, functions=specs)

    def test_fan_out_runs_concurrently(self):
        from repro.platforms import FirecrackerPlatform
        platform = fresh_platform(FirecrackerPlatform)
        run = run_dag_once(platform, self._fan_dag(), {})
        b, c = run.stages["b"], run.stages["c"]
        assert run.status == "ok"
        # Same wave: both middle stages start together...
        assert b.start_ms == c.start_ms
        # ...and the join waits for the slower one.
        assert run.stages["d"].start_ms == max(b.end_ms, c.end_ms)

    def test_ledger_exactly_once(self):
        from repro.platforms import FirecrackerPlatform
        platform = fresh_platform(FirecrackerPlatform)
        run = run_dag_once(platform, self._fan_dag(), {})
        assert run.ledger == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_records_in_stage_order(self):
        from repro.platforms import FirecrackerPlatform
        platform = fresh_platform(FirecrackerPlatform)
        run = run_dag_once(platform, self._fan_dag(), {})
        assert [r.function for r in run.records()] == \
            [run.stages[s].function for s in ("a", "b", "c", "d")]

    def test_install_requires_bound_functions(self):
        from repro.errors import ValidationError
        from repro.platforms import FirecrackerPlatform
        platform = fresh_platform(FirecrackerPlatform)
        bare = make_dag("bare", "a", [DagStage("a", "fn-a")])
        with pytest.raises(ValidationError, match="no functions bound"):
            ChainExecutor(platform).install(bare)

    def test_install_idempotent(self):
        from repro.platforms import FirecrackerPlatform
        platform = fresh_platform(FirecrackerPlatform)
        executor = ChainExecutor(platform)
        dag = data_analysis_dag()
        executor.install(dag)
        installed_at = platform.sim.now
        executor.install(dag)
        assert platform.sim.now == installed_at
        # One registration per (database, function), not per install call.
        [(db, fns)] = list(platform._db_triggers.items())
        assert len(fns) == 1

    def test_guest_mode_trigger_fires_as_a_plain_trigger(self):
        """The guest-mode runner only keeps the record of the platform's
        own firing: the trace and the clock match a trigger registered
        without a runner."""
        from repro.core import FireworksPlatform
        outcomes = []
        for plain in (False, True):
            platform = fresh_platform(FireworksPlatform)
            executor = ChainExecutor(platform)
            dag = data_analysis_dag()
            executor.install(dag)
            if plain:
                for functions in platform._db_triggers.values():
                    functions[:] = [(function, None)
                                    for function, _runner in functions]
            executor.run(dag, {})
            platform.sim.run()
            trace = json.dumps(to_chrome_trace(platform.sim.tracer.traces()),
                               sort_keys=True, default=str)
            outcomes.append((re.sub(r"[0-9a-f]{8,}", "ADDR", trace),
                             platform.sim.now,
                             len(executor.trigger_records)))
        assert outcomes[0][:2] == outcomes[1][:2]
        assert (outcomes[0][2], outcomes[1][2]) == (1, 0)
