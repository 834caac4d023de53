"""Unit tests for the ServerlessBench chain definitions."""

import pytest

from repro.errors import PlatformError
from repro.runtime.ops import Compute, DbGet, DbPut, InvokeNext
from repro.workloads.serverlessbench import (ALEXA_SKILLS, REMINDER_DB,
                                             WAGES_DB, alexa_skills_chain,
                                             data_analysis_chain,
                                             data_analysis_dag)


class TestAlexa:
    def test_chain_structure(self):
        chain = alexa_skills_chain()
        assert chain.entry == "alexa-frontend"
        names = {spec.name for spec in chain.functions}
        assert names == {"alexa-frontend", "alexa-fact", "alexa-reminder",
                         "alexa-smarthome"}

    def test_frontend_dispatches_per_skill(self):
        chain = alexa_skills_chain()
        frontend = chain.function("alexa-frontend")
        for skill in ALEXA_SKILLS:
            prog = frontend.program({"skill": skill})
            invoke = next(op for op in prog if isinstance(op, InvokeNext))
            assert invoke.function == f"alexa-{skill}"

    def test_frontend_arg_shapes_vary(self):
        """§6: different skills send different argument shapes."""
        chain = alexa_skills_chain()
        frontend = chain.function("alexa-frontend")
        shapes = set()
        for skill in ALEXA_SKILLS:
            prog = frontend.program({"skill": skill})
            compute = next(op for op in prog if isinstance(op, Compute))
            shapes.add(compute.arg_shape)
        assert len(shapes) == len(ALEXA_SKILLS)

    def test_reminder_reads_and_writes_couchdb(self):
        chain = alexa_skills_chain()
        prog = chain.function("alexa-reminder").program({})
        assert any(isinstance(op, DbGet) and op.database == REMINDER_DB
                   for op in prog)
        assert any(isinstance(op, DbPut) and op.database == REMINDER_DB
                   for op in prog)

    def test_unknown_function_lookup_raises(self):
        with pytest.raises(PlatformError):
            alexa_skills_chain().function("alexa-ghost")

    def test_sources_annotate(self):
        from repro.core.annotator import annotate
        for spec in alexa_skills_chain().functions:
            annotate(spec.source, spec.language)


class TestDataAnalysis:
    def test_chain_structure(self):
        chain = data_analysis_chain()
        assert chain.entry == "da-input"
        assert {spec.name for spec in chain.functions} == \
            {"da-input", "da-format", "da-analyze", "da-stats"}

    def test_insertion_path_writes_wages(self):
        chain = data_analysis_chain()
        fmt = chain.function("da-format").program({})
        assert any(isinstance(op, DbPut) and op.database == WAGES_DB
                   for op in fmt)

    def test_input_chains_to_format(self):
        chain = data_analysis_chain()
        prog = chain.function("da-input").program({})
        invoke = next(op for op in prog if isinstance(op, InvokeNext))
        assert invoke.function == "da-format"

    def test_analysis_chains_to_stats(self):
        chain = data_analysis_chain()
        prog = chain.function("da-analyze").program({})
        invoke = next(op for op in prog if isinstance(op, InvokeNext))
        assert invoke.function == "da-stats"

    def test_trigger_wiring(self):
        """Fig 8(b): the analysis chain is triggered on wages update."""
        dag = data_analysis_dag()
        [edge] = dag.trigger_edges()
        assert edge.database == WAGES_DB
        assert dag.stage(edge.dst).function == "da-analyze"

    def test_all_functions_are_nodejs(self):
        """§5.3: both real-world apps are written in Node.js."""
        for chain in (alexa_skills_chain(), data_analysis_chain()):
            for spec in chain.functions:
                assert spec.language == "nodejs"
