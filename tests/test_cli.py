"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import pytest

from repro.bench.engine import experiment_ids, run_experiments
from repro.bench.render import render_experiment_text
from repro.cli import build_parser, main
from repro.serve.scenarios import load_scenario_library

REPO_ROOT = Path(__file__).resolve().parents[1]


def _documented_commands():
    """``(where, argv)`` for every ``python -m repro`` or ``repro`` line
    inside a fenced block of README.md and docs/*.md (``$ `` prompts,
    trailing comments and a trailing ``&`` stripped)."""
    found = []
    for doc in [REPO_ROOT / "README.md"] + sorted(
            (REPO_ROOT / "docs").glob("*.md")):
        fenced = False
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            text = line.strip()
            if text.startswith("```"):
                fenced = not fenced
                continue
            text = text[2:] if text.startswith("$ ") else text
            if fenced and text.startswith(("python -m repro", "repro ")):
                words = shlex.split(text, comments=True)
                if words[-1] == "&":
                    words.pop()
                words = words[3:] if words[0] == "python" else words[1:]
                found.append((f"{doc.name}:{number}", words))
    return found


DOCUMENTED = _documented_commands()


@pytest.mark.parametrize("argv", [argv for _, argv in DOCUMENTED],
                         ids=[where for where, _ in DOCUMENTED])
def test_documented_command_parses(argv):
    """Every command the docs show is one the CLI accepts, and every name
    on a ``figure`` line is an experiment id, ``all`` or a shipped
    scenario (argparse cannot tell, so a typo would otherwise pass)."""
    args = build_parser().parse_args(argv)
    if args.command == "figure":
        known = (set(experiment_ids()) | {"all"}
                 | set(load_scenario_library(REPO_ROOT / "scenarios")))
        assert set(args.names) <= known, args.names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_scenario_flags(self):
        args = build_parser().parse_args(
            ["figure", "paper-tables", "-j", "2", "--no-cache"])
        assert args.names == ["paper-tables"]
        assert args.jobs == 2 and args.no_cache

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8177


class TestErrorPaths:
    """Unknown names and bad flags: exit codes + actionable messages."""

    def test_run_rejects_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        # The message lists both valid namespaces.
        assert "table1" in err and "fig6" in err       # experiment ids
        assert "paper-repro" in err                    # scenario names

    def test_run_rejects_unknown_scenario_name(self, capsys):
        assert main(["figure", "paper-reproo"]) == 2
        err = capsys.readouterr().err
        assert "paper-reproo" in err and "paper-repro" in err

    def test_run_rejects_zero_jobs(self, capsys):
        # Checked before a scenario's own jobs could stand in for it.
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "paper-tables", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_scenario_must_be_the_only_name(self, capsys):
        assert main(["figure", "table1", "paper-tables"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'paper-tables' must be the only name" in captured.err

    def test_figure_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "table1", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_run_with_broken_scenario_library_exits_2(
            self, tmp_path, capsys, monkeypatch):
        """A corrupt library file must not turn 'figure <typo>' into a
        traceback (regression: ValidationError escaped main())."""
        bad = tmp_path / "scenarios"
        bad.mkdir()
        (bad / "broken.json").write_text("{not json")
        monkeypatch.setenv("REPRO_SCENARIOS", str(bad))
        assert main(["figure", "no-such-target"]) == 2
        err = capsys.readouterr().err
        assert "scenario library is broken" in err
        assert "invalid JSON" in err

    def test_run_with_missing_scenario_library_exits_2(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIOS", str(tmp_path / "missing"))
        assert main(["figure", "no-such-target"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_run_figure_id_works_despite_broken_library(
            self, tmp_path, capsys, monkeypatch):
        # Experiment ids never consult the library, so they keep working.
        monkeypatch.setenv("REPRO_SCENARIOS", str(tmp_path / "missing"))
        assert main(["figure", "table1"]) == 0
        assert "High (VM)" in capsys.readouterr().out

    def test_scenarios_with_broken_library_exits_2(
            self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "scenarios"
        bad.mkdir()
        (bad / "broken.json").write_text("[1, 2]")
        monkeypatch.setenv("REPRO_SCENARIOS", str(bad))
        assert main(["scenarios"]) == 2
        assert "scenario library is broken" in capsys.readouterr().err

    def test_corrupt_cache_blob_recomputes_instead_of_crashing(
            self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main(["figure", "table1"] + cache) == 0
        first = capsys.readouterr().out
        # Trash every cache entry the run wrote.
        blobs = list((tmp_path / "c").glob("*/*.bin"))
        assert blobs
        for blob in blobs:
            blob.write_bytes(b"\x00garbage, not a codec payload")
        assert main(["figure", "table1"] + cache) == 0
        second = capsys.readouterr()
        assert second.out == first                 # recomputed, identical
        assert "0 cached, 1 executed" in second.err  # miss, not a crash


class TestCommands:
    def test_figures_lists_everything(self, capsys):
        """``figures`` lists what ``figure`` accepts: every catalog id."""
        assert main(["figures"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(experiment_ids())
        assert "fig4               per-region sharing across 10 clones" \
            in lines

    def test_run_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "fireworks" in out
        assert "High (VM)" in out

    def test_run_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "faas-fact-nodejs" in out
        assert "+post-jit" in out

    def test_run_snapshot_creation(self, capsys):
        assert main(["figure", "snapshot-creation"]) == 0
        assert "snapshot=" in capsys.readouterr().out

    def test_annotate_python_file(self, tmp_path, capsys):
        handler = tmp_path / "handler.py"
        handler.write_text("def main(params):\n    return params\n")
        assert main(["annotate", str(handler)]) == 0
        out = capsys.readouterr().out
        assert "@jit(cache=True)" in out
        assert "__fireworks_main" in out

    def test_annotate_js_file(self, tmp_path, capsys):
        handler = tmp_path / "handler.js"
        handler.write_text("function main(p) { return p; }\n")
        assert main(["annotate", str(handler)]) == 0
        assert "%OptimizeFunctionOnNextCall" in capsys.readouterr().out

    def test_burst(self, capsys):
        assert main(["figure", "burst", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== burst ==\n")
        assert "fireworks" in out and "p99" in out

    def test_trace_writes_valid_json(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "fig6", "--invocation", "0",
                     "--format", "chrome", "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        names = {event["name"] for event in document["traceEvents"]}
        # The fireworks invocation's stages are all there.
        assert {"invoke", "acquire", "exec", "restore",
                "mmds-write", "param-fetch"} <= names

    def test_trace_tree_format(self, capsys):
        assert main(["trace", "fig6", "--invocation", "5",
                     "--format", "tree"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "cold-start" in out  # invocation 5 = firecracker cold

    def test_trace_chain_target(self, tmp_path, capsys):
        out_path = tmp_path / "chain.json"
        assert main(["trace", "chain", "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        names = [event["name"] for event in document["traceEvents"]]
        assert names.count("invoke") >= 2  # chain hops nest invoke spans

    def test_trace_rejects_bad_invocation_index(self, capsys):
        assert main(["trace", "fig6", "--invocation", "99"]) == 1
        assert "--invocation" in capsys.readouterr().err

    def test_run_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "ServerlessBench" in capsys.readouterr().out

    def test_run_fig12(self, capsys):
        assert main(["figure", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "os-snap" in out
        assert "faas-fact-python" in out

    def test_run_fig10(self, capsys):
        assert main(["figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "max" in out and "before swapping" in out

    def test_run_fig4(self, capsys):
        """Fig 4 is a catalog experiment: one row per guest region."""
        assert main(["figure", "fig4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "== fig4 =="
        assert [line.split()[0] for line in lines[1:-1]] == [
            "app", "heap", "jit_code", "kernel", "runtime", "vmm"]
        assert lines[-1] == ""
        jit_code = lines[3]
        assert "rss=" in jit_code and "pss=" in jit_code
        assert "shared= 80.1%" in jit_code    # "even the JITted code"

    def test_export_command(self, tmp_path, capsys):
        assert main(["export", str(tmp_path), "--only", "fig11"]) == 0
        assert (tmp_path / "fig11.csv").exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        assert "8 shards: 0 cached, 8 executed" in captured.err

    def test_export_after_figure_is_all_cache_hits(self, tmp_path, capsys):
        """``export`` reads through the cache ``figure`` wrote."""
        assert main(["figure", "fig9", "fig11"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "csv"
        assert main(["export", str(out_dir), "--only", "fig9",
                     "fig11"]) == 0
        assert "0 executed" in capsys.readouterr().err
        assert {path.name for path in out_dir.iterdir()} == {
            "fig9a.csv", "fig9b.csv", "fig11.csv"}

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_scorecard(self, capsys):
        """Every headline claim holds at the default calibration."""
        from repro.bench.paper import CLAIMS
        assert main(["figure", "scorecard"]) == 0
        out = capsys.readouterr().out
        assert out.count("[OK ]") == len(CLAIMS) == 15
        assert "[DEV]" not in out

    def test_profile_runs_a_catalog_shard(self, capsys):
        assert main(["profile", "fig10", "--shard", "firecracker",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== profile: fig10/firecracker (top 3 by ")
        assert "function calls" in out

    def test_profile_rejects_unknown_shard(self, capsys):
        assert main(["profile", "fig10", "--shard", "nope"]) == 1
        assert "shards: firecracker, fireworks" in capsys.readouterr().err

    def test_profile_refuses_a_derived_experiment(self, capsys):
        assert main(["profile", "scorecard"]) == 1
        assert "derives its result" in capsys.readouterr().err


def _scenario_library_with(tmp_path, monkeypatch, **document):
    """Point the CLI at a one-scenario library holding *document*."""
    root = tmp_path / "scenarios"
    root.mkdir()
    document = {"title": "a test scenario", **document}
    (root / f"{document['name']}.json").write_text(json.dumps(document))
    monkeypatch.setenv("REPRO_SCENARIOS", str(root))


class TestScenarioCommands:
    """`scenarios`, and `figure` given a scenario name."""

    def test_scenarios_lists_the_library(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-repro", "paper-tables", "4-host-chaos",
                     "open-loop-load", "restore", "search-smoke"):
            assert name in out

    def test_run_named_scenario(self, tmp_path, capsys):
        assert main(["figure", "paper-tables",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        captured = capsys.readouterr()
        assert "== table1 ==" in captured.out
        assert "== table2 ==" in captured.out
        assert "== snapshot-creation ==" in captured.out
        assert "3 shards" in captured.err

    def test_run_scenario_cached_rerun_is_identical(self, tmp_path,
                                                    capsys):
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main(["figure", "paper-tables"] + cache) == 0
        first = capsys.readouterr()
        assert main(["figure", "paper-tables"] + cache) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "3 cached" in second.err

    def test_run_figure_still_wins_over_scenarios(self, tmp_path, capsys,
                                                  monkeypatch):
        # A scenario named after an experiment id is never run by that
        # name: the id wins.
        _scenario_library_with(tmp_path, monkeypatch, name="table1",
                               experiments=["table2"])
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== table1 ==\n") and "High (VM)" in out
        assert "== table2 ==" not in out

    def test_scenario_runs_at_its_seed(self, capsys):
        """``figure 4-host-chaos`` is the chaos experiment at seed 11."""
        assert main(["figure", "4-host-chaos"]) == 0
        out = capsys.readouterr().out
        at = {seed: run_experiments(["chaos"], seed=seed).results["chaos"]
              for seed in (11, 2022)}
        assert out == ("== chaos ==\n"
                       + render_experiment_text("chaos", at[11]) + "\n")
        assert render_experiment_text("chaos", at[2022]) not in out

    def test_scenario_jobs_is_the_default_for_jobs(self, tmp_path, capsys,
                                                   monkeypatch):
        _scenario_library_with(tmp_path, monkeypatch, name="pair",
                               experiments=["table2"], jobs=2)
        assert main(["figure", "pair", "--no-cache"]) == 0
        assert "executed on 2 jobs" in capsys.readouterr().err
        assert main(["figure", "pair", "--no-cache", "--jobs", "1"]) == 0
        assert "executed on 1 job " in capsys.readouterr().err


class TestFigureCommand:
    """`figure`: many experiments through the parallel engine + cache."""

    def test_rejects_unknown_experiment(self, capsys):
        # Every name is checked before anything runs.
        assert main(["figure", "table1", "fig99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'fig99'" in captured.err

    def test_multiple_ids_one_invocation(self, tmp_path, capsys):
        assert main(["figure", "table1", "fig11",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== table1 ==" in out and "== fig11 ==" in out
        assert "High (VM)" in out           # table1's own renderer
        assert "faas-fact-nodejs" in out    # fig11's own renderer

    def test_matches_run_output(self, tmp_path, capsys):
        """Each section is the experiment's own renderer over the engine
        run's result, under an ``== id ==`` header."""
        assert main(["figure", "fig10", "--cache-dir", str(tmp_path)]) == 0
        via_figure = capsys.readouterr().out
        result = run_experiments(["fig10"], cache_dir=str(tmp_path))
        assert via_figure == ("== fig10 ==\n" + render_experiment_text(
            "fig10", result.results["fig10"]) + "\n")

    def test_chart_flag(self, capsys):
        assert main(["figure", "fig9", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "S=start-up" in out
        assert "|" in out
        result = run_experiments(["fig9"]).results["fig9"]
        assert render_experiment_text("fig9", result, chart=True) in out

    def test_cache_roundtrip_same_output(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main(["figure", "fig6"] + cache) == 0
        first = capsys.readouterr()
        assert "fireworks" in first.out and "openwhisk (c)" in first.out
        assert main(["figure", "fig6", "--jobs", "2"] + cache) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "4 cached" in second.err  # all four shards hit the cache

    def test_no_cache_leaves_no_directory(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        assert main(["figure", "table2", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()

    def test_extension_experiment(self, tmp_path, capsys):
        assert main(["figure", "sensitivity",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "hotness_threshold_units" in capsys.readouterr().out

