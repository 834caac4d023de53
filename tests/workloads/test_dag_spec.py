"""Unit tests for DagSpec: lookups, graph queries and validation."""

from dataclasses import replace

import pytest

from repro.errors import ValidationError
from repro.workloads import (DagEdge, DagSpec, DagStage, alexa_skills_chain,
                             alexa_skills_dag, data_analysis_dag, make_dag)
from repro.workloads.dag import EDGE_TRIGGER, validate_dag


def _diamond():
    """split fans out to left/right, both fan in to join."""
    stages = [DagStage("split", "fn-split"), DagStage("left", "fn-left"),
              DagStage("right", "fn-right"), DagStage("join", "fn-join")]
    edges = [DagEdge("split", "left"), DagEdge("split", "right"),
             DagEdge("left", "join"), DagEdge("right", "join")]
    return make_dag("diamond", "split", stages, edges)


class TestLookups:
    def test_stage_and_function_names(self):
        dag = _diamond()
        assert dag.stage("left").function == "fn-left"
        assert dag.stage_names() == ("split", "left", "right", "join")

    def test_missing_stage_raises(self):
        with pytest.raises(ValidationError, match="no stage"):
            _diamond().stage("ghost")

    def test_missing_function_binding_raises(self):
        with pytest.raises(ValidationError, match="no function"):
            _diamond().function_spec("fn-split")

    def test_edge_queries(self):
        dag = _diamond()
        assert {e.src for e in dag.invoke_in_edges("join")} == \
            {"left", "right"}
        assert {e.dst for e in dag.invoke_out_edges("split")} == \
            {"left", "right"}
        assert dag.trigger_edges() == ()

    def test_trigger_driven(self):
        dag = data_analysis_dag()
        assert dag.trigger_driven("analyze")
        assert not dag.trigger_driven("format")


class TestGraphQueries:
    def test_invoke_order_is_topological(self):
        dag = _diamond()
        order = dag.invoke_order()
        for edge in dag.edges:
            assert order.index(edge.src) < order.index(edge.dst)

    def test_invoke_order_tie_breaks_by_declaration(self):
        assert _diamond().invoke_order() == ("split", "left", "right",
                                             "join")

    def test_invoke_order_deterministic(self):
        dag = _diamond()
        assert dag.invoke_order() == dag.invoke_order()

    def test_active_stages_full_diamond(self):
        assert _diamond().active_stages({}) == ("split", "left", "right",
                                                "join")

    def test_active_stages_conditional_edge(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb"),
                  DagStage("c", "fc")]
        edges = [DagEdge("a", "b", when_key="go", when_value="yes"),
                 DagEdge("b", "c")]
        dag = make_dag("cond", "a", stages, edges)
        assert dag.active_stages({"go": "yes"}) == ("a", "b", "c")
        # Edge not taken: everything downstream of it is inactive.
        assert dag.active_stages({"go": "no"}) == ("a",)
        assert dag.active_stages({}) == ("a",)

    def test_active_stages_excludes_trigger_driven(self):
        dag = data_analysis_dag()
        active = dag.active_stages({})
        assert "analyze" not in active
        assert "stats" not in active  # downstream of the trigger stage

    def test_active_stages_trigger_segment_root(self):
        dag = data_analysis_dag()
        assert dag.active_stages({}, root="analyze") == ("analyze",
                                                         "stats")

    def test_active_stages_unknown_root_raises(self):
        with pytest.raises(ValidationError, match="no stage"):
            _diamond().active_stages({}, root="ghost")

    def test_alexa_fan_out_selects_one_skill(self):
        dag = alexa_skills_dag()
        active = dag.active_stages({"skill": "fact"})
        assert active == ("frontend", "fact")


class TestValidation:
    def test_unknown_edge_stage_path(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb")]
        edges = [DagEdge("a", "b"), DagEdge("a", "ghost")]
        with pytest.raises(ValidationError,
                           match=r"^dag\.edges\[1\]\.to:"):
            make_dag("bad", "a", stages, edges)

    def test_duplicate_stage_path(self):
        stages = [DagStage("a", "fa"), DagStage("a", "fb")]
        with pytest.raises(ValidationError,
                           match=r"^dag\.stages\[1\]\.name:"):
            make_dag("bad", "a", stages)

    def test_cycle_detected_over_trigger_edges(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb"),
                  DagStage("c", "fc")]
        edges = [DagEdge("b", "c"),
                 DagEdge("c", "b", kind=EDGE_TRIGGER, database="db")]
        with pytest.raises(ValidationError, match=r"^dag\.edges: cycle"):
            make_dag("bad", "a", stages, edges)

    def test_entry_cannot_have_in_edges(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb")]
        edges = [DagEdge("a", "b"), DagEdge("b", "a")]
        with pytest.raises(ValidationError,
                           match=r"entry stage 'a' cannot"):
            make_dag("bad", "a", stages, edges)

    def test_trigger_edge_needs_database(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb")]
        edges = [DagEdge("a", "b", kind=EDGE_TRIGGER)]
        with pytest.raises(ValidationError,
                           match=r"^dag\.edges\[0\]\.database:"):
            make_dag("bad", "a", stages, edges)

    def test_trigger_edge_cannot_be_conditional(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb")]
        edges = [DagEdge("a", "b", kind=EDGE_TRIGGER, database="db",
                         when_key="k", when_value=1)]
        with pytest.raises(ValidationError,
                           match=r"^dag\.edges\[0\]\.when:"):
            make_dag("bad", "a", stages, edges)

    def test_mixed_in_edge_kinds_rejected(self):
        stages = [DagStage("a", "fa"), DagStage("b", "fb"),
                  DagStage("c", "fc")]
        edges = [DagEdge("a", "b"), DagEdge("a", "c"), DagEdge("b", "c"),
                 DagEdge("a", "c", kind=EDGE_TRIGGER, database="db")]
        with pytest.raises(ValidationError, match="mixes invoke and"):
            make_dag("bad", "a", stages, edges)

    def test_guest_hops_needs_unique_functions(self):
        stages = [DagStage("a", "shared"), DagStage("b", "shared")]
        with pytest.raises(ValidationError, match="unique function"):
            make_dag("bad", "a", stages, [DagEdge("a", "b")],
                     guest_hops=True)

    def test_unbound_stage_function_rejected(self):
        dag = _diamond()
        chain = alexa_skills_chain()
        with pytest.raises(ValidationError, match="no bound function"):
            validate_dag(replace(dag, functions=tuple(chain.functions)))

    def test_validate_returns_spec(self):
        dag = _diamond()
        assert validate_dag(dag) is dag


class TestServerlessBenchDags:
    def test_functions_bound(self):
        dag = alexa_skills_dag()
        for stage in dag.stages:
            assert dag.function_spec(stage.function).name == stage.function

    def test_alexa_dag_valid_and_guest_hopping(self):
        dag = alexa_skills_dag()
        assert dag.guest_hops
        assert validate_dag(dag) is dag
        skills = {e.when_value for e in dag.invoke_out_edges("frontend")}
        assert len(skills) >= 3

    def test_data_analysis_has_trigger_edge(self):
        dag = data_analysis_dag()
        triggers = dag.trigger_edges()
        assert len(triggers) == 1
        assert triggers[0].database
