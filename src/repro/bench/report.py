"""One-shot full evaluation report: every artifact, one text document.

``full_report()`` runs the paper's tables and figures (and, by default,
the extension experiments in :data:`EXTENSIONS`) in one
:func:`~repro.bench.engine.run_experiments` call, and prints each one as
a section whose body is that experiment's own renderer output — what
``python -m repro report`` prints.  Only the Fig 4 per-region view, which
is not a catalog experiment, is rendered here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.experiment import FIGURES
from repro.config import CalibratedParameters

#: The extension experiments the report appends after the paper's own.
EXTENSIONS = ("burst", "ablations")

RULE = "=" * 72


def _section(title: str, body: str) -> str:
    """A titled section; *body* ends with a newline."""
    return f"\n{RULE}\n{title}\n{RULE}\n{body}"


def _fig4_body(params: Optional[CalibratedParameters]) -> str:
    from repro.bench.memory import run_fig4_view
    return "".join(
        f"{region:<10} rss={stats['rss_mb']:6.1f}M "
        f"pss={stats['pss_mb']:6.1f}M "
        f"shared={stats['shared_fraction']:6.1%}\n"
        for region, stats in sorted(run_fig4_view(params).items()))


def full_report(params: Optional[CalibratedParameters] = None,
                include_extensions: bool = True) -> str:
    """The whole evaluation as one string, ending with a newline.

    Each catalog section is titled ``<id> — <title>``, and its body is
    byte-identical to :func:`~repro.bench.render.render_experiment_text`
    of that experiment's result.
    """
    from repro.bench.engine import experiment_registry, run_experiments
    from repro.bench.paper import comparison_summary
    from repro.bench.render import render_experiment_text

    ids = FIGURES + (EXTENSIONS if include_extensions else ())
    results = run_experiments(ids, params=params, use_cache=False).results
    summary = comparison_summary(results["scorecard"])
    parts: List[str] = [
        "FIREWORKS (EuroSys '22) — full reproduction report\n"
        "(deterministic; see DESIGN.md for calibration, EXPERIMENTS.md "
        "for bands)\n"
        f"claims holding: {summary['holds']}/{summary['total']}\n"]
    registry = experiment_registry()
    for experiment_id in ids:
        if experiment_id == "fig10":
            parts.append(_section(
                "fig4 — per-region sharing across 10 clones",
                _fig4_body(params)))
        parts.append(_section(
            f"{experiment_id} — {registry[experiment_id].title}",
            render_experiment_text(experiment_id, results[experiment_id])))
    return "".join(parts)
