"""Tests for the paper-reproduction report: what ``make report`` prints,
the stdout of ``figure paper-repro``."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from repro.bench.engine import experiment_ids, run_experiments
from repro.bench.paper import CLAIMS
from repro.bench.render import render_experiment_text
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _report_argv():
    """The ``repro`` arguments of the Makefile's ``report`` recipe."""
    lines = (REPO_ROOT / "Makefile").read_text().splitlines()
    words = shlex.split(lines[lines.index("report:") + 1])
    assert words[:3] == ["python", "-m", "repro"]
    return words[3:]


def _main(argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sections(out):
    """``{id: body}`` of ``figure`` stdout, in order."""
    ids = set(experiment_ids())
    sections, current = {}, None
    for line in out.splitlines(keepends=True):
        if (line.startswith("== ") and line.endswith(" ==\n")
                and line[3:-4] in ids):
            current = line[3:-4]
            sections[current] = ""
        else:
            sections[current] += line
    # Drop each section's blank separator line.
    return {name: body[:-1] for name, body in sections.items()}


@pytest.fixture(scope="module")
def report(shared_cache_dir):
    """The report's stdout, run through the module's shared cache."""
    code, out, _ = _main(_report_argv() + ["--cache-dir", shared_cache_dir])
    assert code == 0
    return out


class TestFullReport:
    def test_every_artifact_present(self, report):
        """The paper's own tables and figures, Fig 4 included, in paper
        order: the head of the catalog."""
        ids = list(_sections(report))
        assert ids == list(experiment_ids()[:len(ids)])
        assert ids[:5] == ["table1", "table2", "snapshot-creation", "fig4",
                           "fig6"]
        assert ids[-1] == "scorecard"

    def test_sections_are_the_catalog_renderers(self, report,
                                                shared_cache_dir):
        """Each section's body is the experiment's own renderer output,
        byte for byte."""
        sections = _sections(report)
        results = run_experiments(list(sections), cache_dir=shared_cache_dir)
        assert results.stats.executed == 0
        for experiment_id, body in sections.items():
            assert body == render_experiment_text(
                experiment_id, results.results[experiment_id]), experiment_id

    def test_all_claims_hold(self, report):
        assert _sections(report)["scorecard"].count("[OK ]") == len(
            CLAIMS) == 15
        assert "[DEV]" not in report

    def test_platform_rows_rendered(self, report):
        fig6 = _sections(report)["fig6"]
        assert "fireworks" in fig6
        assert "openwhisk (c)" in fig6


class TestCliReport:
    def test_report_command(self, report, shared_cache_dir):
        """``make report`` runs ``figure paper-repro``; a rerun over the
        same cache executes nothing and prints the same report."""
        assert _report_argv() == ["figure", "paper-repro"]
        code, out, err = _main(_report_argv()
                               + ["--cache-dir", shared_cache_dir])
        assert code == 0
        assert out == report
        assert "0 executed" in err
