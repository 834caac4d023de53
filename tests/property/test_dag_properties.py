"""Property tests for the DAG engine.

**Execution order**, fuzzed: for any random acyclic DAG the orchestrated
executor dispatches exactly the active stages, in a valid topological
order (an edge's source finishes before its destination starts), and the
ledger records exactly one dispatch per executed stage — never a
re-dispatch, never a skipped stage with a record.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import fresh_platform
from repro.platforms import FirecrackerPlatform
from repro.platforms.chains import STATUS_OK, STATUS_SKIPPED
from repro.workloads import faasdom_spec
from repro.workloads.dag import DagEdge, DagSpec, DagStage, validate_dag
from tests.helpers import run_dag_once


@st.composite
def acyclic_dags(draw, max_stages: int = 5):
    """A random validated invoke-only DAG: edges go strictly from lower
    to higher stage index, so acyclicity holds by construction.  Some
    edges are conditional on the run payload's ``flag`` key."""
    n = draw(st.integers(min_value=2, max_value=max_stages))
    names = [f"s{i}" for i in range(n)]
    spec = faasdom_spec("faas-fact", "nodejs")
    stages = tuple(DagStage(name, spec.name) for name in names)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if i == 0 and j == i + 1:
                take = True  # keep at least one edge off the entry
            else:
                take = draw(st.booleans())
            if not take:
                continue
            conditional = draw(st.booleans())
            edges.append(DagEdge(
                names[i], names[j],
                when_key="flag" if conditional else "",
                when_value=draw(st.booleans()) if conditional else None))
    dag = DagSpec(name="fuzz", entry=names[0], stages=stages,
                  edges=tuple(edges), functions=(spec,))
    return validate_dag(dag)


class TestExecutionOrder:
    @given(dag=acyclic_dags(), flag=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_topological_order_and_exactly_once(self, dag, flag):
        payload = {"flag": flag}
        platform = fresh_platform(FirecrackerPlatform)
        run = run_dag_once(platform, dag, payload)

        active = set(dag.active_stages(payload))
        executed = {result.stage for result in run.executed()}
        assert executed == active
        # Exactly-once: one ledger entry per executed stage, nothing else.
        assert run.ledger == {stage: 1 for stage in active}
        for name, result in run.stages.items():
            if name in active:
                assert result.status == STATUS_OK
                assert result.record is not None
            else:
                assert result.status == STATUS_SKIPPED
                assert result.record is None
        # Topological: every taken edge between active stages is ordered.
        for edge in dag.edges:
            if edge.src in active and edge.dst in active \
                    and edge.taken(payload):
                assert run.stages[edge.src].end_ms <= \
                    run.stages[edge.dst].start_ms

    @given(dag=acyclic_dags(max_stages=4), flag=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_reruns_are_deterministic(self, dag, flag):
        payload = {"flag": flag}
        timings = []
        for _ in range(2):
            platform = fresh_platform(FirecrackerPlatform)
            run = run_dag_once(platform, dag, payload)
            timings.append([(r.stage, r.start_ms, r.end_ms)
                            for r in run.executed()])
        assert timings[0] == timings[1]
