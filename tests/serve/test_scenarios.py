"""Tests for the named-scenario library: schema, loader, coverage.

Two contracts matter here.  First, the loader's error discipline: the
*only* exception that escapes is :class:`ValidationError`, and its
message names a JSON path into the offending document.  Second, the
shipped ``scenarios/`` library is complete: every engine experiment id
is reachable through at least one named scenario, and every experiment
page under ``docs/`` has a scenario pointing back at it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.engine import experiment_ids
from repro.errors import ValidationError
from repro.serve.scenarios import (SCENARIO_ENV_VAR, Scenario,
                                   default_library_root, dump_scenario,
                                   load_scenario, load_scenario_file,
                                   load_scenario_library)
from tests.helpers import load_named_scenario, scenario_names

REPO_ROOT = Path(__file__).resolve().parents[2]

VALID = {
    "name": "smoke",
    "title": "a smoke scenario",
    "experiments": ["table1", "table2"],
}


class TestLoadScenario:
    def test_minimal_document(self):
        scenario = load_scenario(VALID)
        assert scenario.name == "smoke"
        assert scenario.experiments == ("table1", "table2")
        assert scenario.seed == 2022 and scenario.jobs == 1
        assert scenario.tags == () and scenario.docs == ()

    def test_full_document_round_trips_exactly(self):
        document = {
            "name": "full", "title": "t", "description": "d",
            "experiments": ["fig6"], "seed": 7, "jobs": 3,
            "tags": ["paper"], "docs": ["docs/service.md"],
        }
        scenario = load_scenario(document)
        assert dump_scenario(scenario) == document
        assert load_scenario(dump_scenario(scenario)) == scenario

    @pytest.mark.parametrize("document, path", [
        ("not a mapping", "scenario"),
        ({**VALID, "bogus": 1}, "scenario.bogus"),
        ({"title": "t", "experiments": ["fig6"]}, "scenario.name"),
        ({"name": "x", "experiments": ["fig6"]}, "scenario.title"),
        ({"name": "x", "title": "t"}, "scenario.experiments"),
        ({**VALID, "name": "Bad_Name"}, "scenario.name"),
        ({**VALID, "experiments": []}, "scenario.experiments"),
        ({**VALID, "experiments": "fig6"}, "scenario.experiments"),
        ({**VALID, "experiments": ["fig6", "nope"]},
         "scenario.experiments[1]"),
        ({**VALID, "experiments": ["fig6", "fig6"]},
         "scenario.experiments[1]"),
        ({**VALID, "seed": -1}, "scenario.seed"),
        ({**VALID, "seed": True}, "scenario.seed"),
        ({**VALID, "seed": "2022"}, "scenario.seed"),
        ({**VALID, "jobs": 0}, "scenario.jobs"),
        ({**VALID, "tags": [1]}, "scenario.tags[0]"),
        ({**VALID, "docs": "docs/x.md"}, "scenario.docs"),
    ])
    def test_invalid_documents_name_their_path(self, document, path):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(document)
        assert str(excinfo.value).startswith(path + ": ")

    def test_unknown_experiment_lists_known_ids(self):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario({**VALID, "experiments": ["fig99"]})
        message = str(excinfo.value)
        assert "fig99" in message
        assert "table1" in message and "fig6" in message

    def test_custom_path_prefix(self):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario({}, path="body.scenario")
        assert str(excinfo.value).startswith("body.scenario.")


class TestScenarioFiles:
    def test_load_json_file(self, tmp_path):
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(VALID))
        assert load_scenario_file(path) == load_scenario(VALID)

    def test_missing_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_file(tmp_path / "absent.json")
        assert "cannot read" in str(excinfo.value)

    def test_invalid_json_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_file(path)
        assert "invalid JSON" in str(excinfo.value)

    def test_yaml_file_loads_when_pyyaml_present(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "smoke.yaml"
        path.write_text(yaml.safe_dump(VALID))
        assert load_scenario_file(path) == load_scenario(VALID)


class TestLibrary:
    def test_filename_must_match_name(self, tmp_path):
        (tmp_path / "alpha.json").write_text(
            json.dumps({**VALID, "name": "beta"}))
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_library(tmp_path)
        assert "must match its filename" in str(excinfo.value)

    def test_missing_root_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_library(tmp_path / "nowhere")
        assert "does not exist" in str(excinfo.value)

    def test_non_scenario_files_are_skipped(self, tmp_path):
        (tmp_path / "smoke.json").write_text(json.dumps(VALID))
        (tmp_path / "README.md").write_text("not a scenario")
        (tmp_path / "policies").mkdir()
        assert tuple(load_scenario_library(tmp_path)) == ("smoke",)

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        (tmp_path / "smoke.json").write_text(json.dumps(VALID))
        monkeypatch.setenv(SCENARIO_ENV_VAR, str(tmp_path))
        assert default_library_root() == tmp_path
        assert scenario_names() == ("smoke",)

    def test_unknown_named_scenario_lists_known(self, tmp_path):
        (tmp_path / "smoke.json").write_text(json.dumps(VALID))
        with pytest.raises(ValidationError) as excinfo:
            load_named_scenario("nope", root=tmp_path)
        assert "smoke" in str(excinfo.value)


class TestShippedLibrary:
    """The repo's own ``scenarios/`` directory is internally consistent."""

    @pytest.fixture(scope="class")
    def library(self):
        return load_scenario_library(REPO_ROOT / "scenarios")

    def test_library_loads_and_is_nonempty(self, library):
        assert len(library) >= 15
        for scenario in library.values():
            assert isinstance(scenario, Scenario)

    def test_every_engine_experiment_is_covered(self, library):
        covered = {experiment for scenario in library.values()
                   for experiment in scenario.experiments}
        missing = set(experiment_ids()) - covered
        assert not missing, (
            f"engine experiments not reachable from any scenario: "
            f"{sorted(missing)}")

    def test_every_docs_experiment_page_has_a_scenario(self, library):
        """The acceptance bar: each docs/ experiment page is one
        ``repro figure <name>`` away."""
        linked = {doc for scenario in library.values()
                  for doc in scenario.docs}
        for page in ("docs/chaos.md", "docs/cluster.md", "docs/scale.md",
                     "docs/lazy-restore.md", "docs/policies.md",
                     "docs/calibration.md"):
            assert page in linked, f"no scenario links {page}"

    def test_docs_links_point_at_real_files(self, library):
        for scenario in library.values():
            for doc in scenario.docs:
                assert (REPO_ROOT / doc).is_file(), (
                    f"{scenario.name} links missing doc {doc}")

    def test_scenarios_named_after_experiments_run_exactly_them(
            self, library):
        """``repro figure <name>`` resolves experiment ids first, so a
        scenario named after an id never runs by that name on the CLI.
        It must run exactly that experiment at the default seed, so the
        CLI and ``POST /experiments {"scenario": name}`` print the same
        figures."""
        shadowed = set(library) & set(experiment_ids())
        assert shadowed  # ablations, load-sweep, restore, search-smoke
        for name in shadowed:
            assert library[name].experiments == (name,), name
            assert library[name].seed == 2022, name

    def test_paper_repro_runs_the_paper_figures(self, library):
        scenario = library["paper-repro"]
        assert "fig6" in scenario.experiments
        assert scenario.seed == 2022

    def test_search_smoke_is_ci_sized(self, library):
        assert library["search-smoke"].experiments == ("search-smoke",)
