"""Exporter tests: Chrome ``trace_event`` JSON and the text tree."""

import json

import pytest

from repro.sim import Simulation
from repro.trace import (chrome_trace_events, render_tree, to_chrome_trace,
                         write_trace_json)
from tests.helpers import run


@pytest.fixture
def trace_root():
    sim = Simulation()

    def body():
        with sim.tracer.span("invoke", kind="invoke", trace_id="inv-1",
                             function="fn") as root:
            with sim.tracer.span("acquire", kind="acquire"):
                yield sim.timeout(4.0)
            with sim.tracer.span("exec", phase="exec"):
                yield sim.timeout(6.0)
        return root

    return run(sim, body())


class TestChromeExport:
    def test_complete_events_in_microseconds(self, trace_root):
        events = chrome_trace_events(trace_root)
        assert [e["name"] for e in events] == ["invoke", "acquire", "exec"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1 and event["tid"] == 1
        exec_event = events[2]
        assert exec_event["ts"] == 4000.0       # 4 ms -> 4000 us
        assert exec_event["dur"] == 6000.0
        assert exec_event["args"]["trace_id"] == "inv-1"
        assert exec_event["args"]["phase"] == "exec"
        assert exec_event["cat"] == "exec"

    def test_each_root_gets_its_own_tid(self, trace_root):
        events = chrome_trace_events([trace_root, trace_root])
        assert {e["tid"] for e in events} == {1, 2}

    def test_document_shape(self, trace_root):
        document = to_chrome_trace(trace_root)
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == 3

    def test_write_roundtrip(self, trace_root, tmp_path):
        path = tmp_path / "out.json"
        assert write_trace_json(trace_root, path) == 3
        loaded = json.loads(path.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == \
            ["invoke", "acquire", "exec"]

    def test_validator_accepts_export(self, trace_root, tmp_path):
        import importlib.util
        from pathlib import Path
        tools = (Path(__file__).resolve().parents[2] / "tools"
                 / "validate_trace.py")
        spec = importlib.util.spec_from_file_location("validate_trace",
                                                      tools)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.validate_trace(to_chrome_trace(trace_root)) == []
        assert module.validate_trace({"traceEvents": [{"ph": "X"}]})
        assert module.validate_trace([]) == \
            ["top level must be an object, got list"]

    def test_validator_checks_placement_args(self, tmp_path):
        import importlib.util
        from pathlib import Path
        tools = (Path(__file__).resolve().parents[2] / "tools"
                 / "validate_trace.py")
        spec = importlib.util.spec_from_file_location("validate_trace",
                                                      tools)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def placement_event(args):
            return {"name": "placement", "ph": "X", "ts": 0.0, "dur": 0.0,
                    "pid": 1, "tid": 1, "cat": "placement", "args": args}

        good = {"traceEvents":
                [placement_event({"host": 2, "policy": "hash",
                                  "source": "builtin"}),
                 placement_event({"host": 0, "policy": "searched-hash",
                                  "source": "dsl"})]}
        assert module.validate_trace(good) == []
        bad = {"traceEvents": [placement_event({"policy": "hash",
                                                "source": "builtin"}),
                               placement_event({"host": 2,
                                                "source": "builtin"}),
                               placement_event({"host": 2, "policy": "hash"}),
                               placement_event({"host": 2, "policy": "hash",
                                                "source": "magic"})]}
        problems = module.validate_trace(bad)
        assert any("args.host" in problem for problem in problems)
        assert any("args.policy" in problem for problem in problems)
        assert sum("args.source" in problem for problem in problems) == 2


def _load_validator():
    import importlib.util
    from pathlib import Path
    tools = (Path(__file__).resolve().parents[2] / "tools"
             / "validate_trace.py")
    spec = importlib.util.spec_from_file_location("validate_trace", tools)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidatorChaosChecks:
    """The retry/failover span shape the chaos engine emits."""

    def _event(self, name, cat, args, ts=0.0, dur=0.0, tid=1):
        return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": tid, "args": args}

    def _invoke(self, ts=0.0, dur=10_000.0, tid=1):
        return self._event("invoke", "invoke", {"trace_id": "t"},
                           ts=ts, dur=dur, tid=tid)

    def test_well_nested_retry_and_failover_pass(self):
        module = _load_validator()
        good = {"traceEvents": [
            self._invoke(),
            self._event("retry", "retry", {"attempt": 1,
                                           "target": "invoke"},
                        ts=1000.0, dur=2000.0),
            self._event("failover", "failover", {"from_host": 0,
                                                 "attempt": 2},
                        ts=3000.0, dur=0.0),
        ]}
        assert module.validate_trace(good) == []

    def test_retry_needs_integer_attempt(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._invoke(),
            self._event("retry", "retry", {"attempt": "one"}, ts=1.0),
            self._event("retry", "retry", {"attempt": 0}, ts=2.0),
        ]}
        problems = module.validate_trace(bad)
        assert sum("args.attempt" in p for p in problems) == 2

    def test_failover_needs_from_host(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._invoke(),
            self._event("failover", "failover", {"attempt": 2}, ts=1.0),
        ]}
        problems = module.validate_trace(bad)
        assert any("args.from_host" in p for p in problems)

    def test_retry_outside_invoke_is_flagged(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._invoke(ts=0.0, dur=100.0),
            self._event("retry", "retry", {"attempt": 1}, ts=500.0),
            # Same window on another tid doesn't shelter it either.
            self._event("failover", "failover", {"from_host": 1},
                        ts=50.0, tid=9),
        ]}
        problems = module.validate_trace(bad)
        assert sum("not nested inside any invoke" in p
                   for p in problems) == 2

    def test_real_chaos_trace_validates(self, tmp_path):
        # A genuine crash-mid-restore trace: failover + retry spans, the
        # regeneration, the works — exported and validated end to end.
        from tests.chaos.helpers import run_crash_during
        module = _load_validator()
        _, _, record = run_crash_during("restore")
        path = tmp_path / "chaos.trace.json"
        write_trace_json(record.span, path)
        assert module.validate_trace(json.loads(path.read_text())) == []
        names = {e["cat"] for e in
                 json.loads(path.read_text())["traceEvents"]}
        assert {"invoke", "retry", "failover"} <= names


class TestTreeExport:
    def test_tree_lists_every_span_with_timings(self, trace_root):
        rendered = render_tree(trace_root)
        lines = rendered.splitlines()
        assert lines[0] == "trace inv-1"
        assert "invoke" in lines[1]
        assert "acquire" in lines[2] and "(     4.000 ms)" in lines[2]
        assert "exec" in lines[3] and "phase=exec" in lines[3]


class TestValidatorChainChecks:
    """The chain/stage/db-trigger overlay the DAG executor records."""

    def _event(self, name, cat, args, ts=0.0, dur=0.0, tid=1):
        return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": tid, "args": args}

    def _chain(self, ts=0.0, dur=5_000.0, tid=1, chain_id="chain-1",
               **overrides):
        args = {"trace_id": chain_id, "dag": "diamond", "mode": "guest",
                "stages": 2, "status": "ok",
                "end_to_end_ms": dur / 1000.0}
        args.update(overrides)
        return self._event("chain", "chain", args, ts=ts, dur=dur,
                           tid=tid)

    def _stage(self, ts=100.0, dur=1_000.0, tid=1, chain_id="chain-1"):
        return self._event("stage", "stage",
                           {"stage": "split", "function": "fn-split",
                            "chain": chain_id, "status": "ok",
                            "invocation": "inv-1"},
                           ts=ts, dur=dur, tid=tid)

    def test_well_formed_overlay_passes(self):
        module = _load_validator()
        good = {"traceEvents": [
            self._chain(),
            self._stage(),
            self._event("db-put", "span", {"database": "wages"},
                        ts=200.0, dur=300.0, tid=2),
            self._event("db-trigger", "db-trigger",
                        {"database": "wages", "function": "fn-analyze"},
                        ts=500.0, tid=3),
        ]}
        assert module.validate_trace(good) == []

    def test_chain_needs_dag_mode_and_stage_count(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._chain(dag=7, mode="psychic", stages=-1),
        ]}
        problems = module.validate_trace(bad)
        assert any("args.dag" in p for p in problems)
        assert any("args.mode" in p for p in problems)
        assert any("args.stages" in p for p in problems)

    def test_chain_duration_must_equal_end_to_end(self):
        module = _load_validator()
        bad = {"traceEvents": [self._chain(end_to_end_ms=4.0)]}
        problems = module.validate_trace(bad)
        assert any("does not match the event duration" in p
                   for p in problems)

    def test_stage_outside_its_chain_is_flagged(self):
        module = _load_validator()
        # Right window, wrong tid; right tid, outside the window; and a
        # window whose trace_id is a different chain.
        bad = {"traceEvents": [
            self._chain(),
            self._stage(tid=9),
            self._stage(ts=5_500.0),
            self._chain(ts=0.0, tid=4, chain_id="chain-2"),
            self._stage(tid=4),
        ]}
        problems = module.validate_trace(bad)
        assert sum("not nested inside chain" in p for p in problems) == 3

    def test_db_trigger_without_a_put_is_flagged(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._event("db-trigger", "db-trigger",
                        {"database": "wages", "function": "fn"},
                        ts=500.0),
        ]}
        problems = module.validate_trace(bad)
        assert any("has no db-put" in p for p in problems)

    def test_db_trigger_before_first_put_is_flagged(self):
        module = _load_validator()
        bad = {"traceEvents": [
            self._event("db-put", "span", {"database": "wages"},
                        ts=1_000.0, dur=500.0),
            self._event("db-trigger", "db-trigger",
                        {"database": "wages", "function": "fn"},
                        ts=900.0),
        ]}
        problems = module.validate_trace(bad)
        assert any("before the first db-put" in p for p in problems)

    def test_real_chain_exports_validate(self, tmp_path):
        # End to end: an orchestrated DAG with a trigger segment on a
        # chain-incapable backend, exported and validated.
        from repro.bench import fresh_platform
        from repro.platforms import FirecrackerPlatform
        from repro.platforms.chains import ChainExecutor
        from repro.workloads import data_analysis_dag
        module = _load_validator()
        platform = fresh_platform(FirecrackerPlatform)
        executor = ChainExecutor(platform)
        dag = data_analysis_dag()
        executor.install(dag)
        executor.run(dag, {})
        platform.sim.run()
        path = tmp_path / "chains.trace.json"
        write_trace_json(platform.sim.tracer.traces(), path)
        doc = json.loads(path.read_text())
        assert module.validate_trace(doc) == []
        cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert {"chain", "stage", "db-trigger"} <= cats
