"""Tests for the one-shot report and the CLI's report command."""

import pytest

from repro.bench.engine import run_experiments
from repro.bench.experiment import FIGURES
from repro.bench.render import render_experiment_text
from repro.bench.report import EXTENSIONS, RULE, full_report


@pytest.fixture(scope="module")
def report():
    return full_report(include_extensions=False)


def _sections(text):
    """``{title: body}`` of a report, in order."""
    pieces = text.split(f"\n{RULE}\n")
    return dict(zip(pieces[1::2], pieces[2::2]))


class TestFullReport:
    def test_every_artifact_present(self, report):
        ids = [title.split(" — ")[0] for title in _sections(report)]
        assert ids == (list(FIGURES[:FIGURES.index("fig10")]) + ["fig4"]
                       + list(FIGURES[FIGURES.index("fig10"):]))

    def test_sections_are_the_catalog_renderers(self, report):
        """Each catalog section's body is the experiment's own renderer
        output, byte for byte."""
        results = run_experiments(FIGURES, use_cache=False).results
        for title, body in _sections(report).items():
            experiment_id = title.split(" — ")[0]
            if experiment_id == "fig4":
                continue  # the per-region view is not a catalog experiment
            assert body == render_experiment_text(
                experiment_id, results[experiment_id]), experiment_id

    def test_all_claims_hold(self, report):
        assert "claims holding: 15/15" in report
        assert "[DEV]" not in report

    def test_extensions_toggle(self, report):
        titles = [title.split(" — ")[0] for title in _sections(report)]
        assert not set(EXTENSIONS) & set(titles)
        with_extensions = full_report(include_extensions=True)
        titles = [title.split(" — ")[0]
                  for title in _sections(with_extensions)]
        assert titles[-len(EXTENSIONS):] == list(EXTENSIONS)

    def test_platform_rows_rendered(self, report):
        assert "fireworks" in report
        assert "openwhisk (c)" in report


class TestCliReport:
    def test_report_command(self, capsys):
        from repro.cli import main
        assert main(["report", "--no-extensions"]) == 0
        out = capsys.readouterr().out
        assert "claims holding: 15/15" in out

    def test_chart_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "fig9", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "S=start-up" in out
        assert "|" in out
