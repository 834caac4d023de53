"""Text rendering of merged experiment results.

One renderer serves both fronts of the harness: ``repro figure`` prints
these strings to stdout, and the experiment service
(:mod:`repro.serve`) returns the *same bytes* from
``GET /experiments/{id}/figures`` — which is what makes the API-vs-CLI
differential test (and the CI byte-diff) meaningful.  The body of each
experiment comes from its own ``render``, found through the engine's
catalog.

Rendering writes to a caller-local stream, never to the process-global
``sys.stdout``: the service registry renders on per-run worker threads,
so concurrent runs (or anything else printing meanwhile) must not be
able to interleave into each other's frozen ``figures_text`` artifact.
"""

from __future__ import annotations

import io

from repro.errors import ReproError

__all__ = ["render_experiment_text", "render_run_text"]


def render_experiment_text(name: str, result, chart: bool = False) -> str:
    """One experiment's rendered body: what ``repro figure`` prints
    under its ``== id ==`` header."""
    from repro.bench.engine import experiment_registry
    experiment = experiment_registry().get(name)
    if experiment is None:
        # ReproError, not SystemExit: the service registry renders on a
        # worker thread whose error path only catches Exception — a
        # BaseException here would kill the thread and wedge the run.
        raise ReproError(f"unknown figure {name!r}")
    buffer = io.StringIO()
    experiment.render(result, buffer, chart)
    return buffer.getvalue()


def render_run_text(results, chart: bool = False) -> str:
    """A whole run ({id: merged result}), exactly as ``repro figure``
    prints it to stdout: ``== id ==`` header, body, blank line."""
    parts = []
    for name, result in results.items():
        parts.append(f"== {name} ==\n")
        parts.append(render_experiment_text(name, result, chart))
        parts.append("\n")
    return "".join(parts)
