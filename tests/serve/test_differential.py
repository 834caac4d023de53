"""Differential tests: the API and the CLI are two fronts over one path.

The service's figures artifact must be *byte-identical* to the output a
user gets from the CLI for the same experiments, and both must address
the same cache entries — a CLI run immediately after an API run (same
cache dir, same seed) should be a pure cache read.  Any drift between
the two fronts — a renderer fork, a key ingredient mismatch — fails
these tests on the first byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.serve.app import create_app

from tests.serve.test_service_e2e import wait_done
from tests.serve.testclient import ASGITestClient

#: The experiments both fronts run (fast, multi-experiment, multi-shard).
EXPERIMENTS = ["table1", "table2", "snapshot-creation"]

SCENARIO = {
    "name": "diff",
    "title": "differential scenario",
    "experiments": EXPERIMENTS,
    "seed": 2022,   # the engine's DEFAULT_SEED: the CLI `figure` path
    "jobs": 1,      # runs under exactly this seed
}


@pytest.fixture(scope="module")
def api_run(tmp_path_factory):
    """One finished API run against a module-shared cache directory."""
    tmp_path = tmp_path_factory.mktemp("differential")
    root = tmp_path / "scenarios"
    root.mkdir()
    (root / "diff.json").write_text(json.dumps(SCENARIO))
    cache_dir = tmp_path / "cache"
    client = ASGITestClient(create_app(scenario_root=root,
                                       cache_dir=str(cache_dir)))
    run_id = client.post("/experiments", json_body={
        "scenario": "diff"}).json()["id"]
    snapshot = wait_done(client, run_id)
    assert snapshot["state"] == "done"
    return client, run_id, cache_dir


class TestApiVersusCli:
    def test_figures_byte_identical_to_cli_figure(self, api_run, capsys):
        client, run_id, cache_dir = api_run
        api_figures = client.get(f"/experiments/{run_id}/figures").body

        assert main(["figure", *EXPERIMENTS,
                     "--cache-dir", str(cache_dir)]) == 0
        cli_stdout = capsys.readouterr().out.encode("utf-8")

        assert hashlib.sha256(api_figures).hexdigest() == \
            hashlib.sha256(cli_stdout).hexdigest()
        assert api_figures == cli_stdout

    def test_cli_reuses_the_api_runs_cache_entries(self, api_run, capsys):
        """Same cache keys: the CLI run right after the API run computes
        nothing — every shard is a hit in the API's cache dir."""
        client, run_id, cache_dir = api_run
        shards_total = client.get(
            f"/experiments/{run_id}").json()["shards_total"]

        assert main(["figure", *EXPERIMENTS,
                     "--cache-dir", str(cache_dir)]) == 0
        stderr = capsys.readouterr().err
        assert f"{shards_total} cached, 0 executed" in stderr

    def test_figures_byte_identical_to_cli_run_scenario(
            self, api_run, tmp_path, monkeypatch, capsys):
        """The `repro figure <scenario>` front agrees too, from the same
        scenario document."""
        client, run_id, cache_dir = api_run
        api_figures = client.get(f"/experiments/{run_id}/figures").body

        root = tmp_path / "scenarios"
        root.mkdir()
        (root / "diff.json").write_text(json.dumps(SCENARIO))
        monkeypatch.setenv("REPRO_SCENARIOS", str(root))
        assert main(["figure", "diff", "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == api_figures
        assert "3 cached" in captured.err

    def test_results_json_matches_a_direct_engine_encode(self, api_run):
        """The /results artifact is the canonical encoding of exactly
        what the engine returns — no serve-layer reshaping."""
        from repro.bench.engine import run_experiments
        from repro.bench.serialization import encode_result
        client, run_id, cache_dir = api_run
        api_results = client.get(f"/experiments/{run_id}/results").body

        outcome = run_experiments(EXPERIMENTS, seed=2022,
                                  cache_dir=str(cache_dir))
        expected = json.dumps(
            {name: encode_result(result)
             for name, result in outcome.results.items()},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert api_results == expected

    def test_cache_directory_layout_is_the_engines(self, api_run):
        """The API populated the cache exactly where the engine's
        ResultCache puts entries: one .bin per shard, per experiment."""
        client, run_id, cache_dir = api_run
        for experiment in EXPERIMENTS:
            entries = list((cache_dir / experiment).glob("*.bin"))
            assert len(entries) == 1, experiment
