"""Shared helpers for the per-figure benchmark harness.

Every file under ``benchmarks/`` regenerates one table or figure from the
paper's evaluation (§5) and prints the regenerated rows/series, so running
``pytest benchmarks/ --benchmark-only`` reproduces the whole evaluation.
"""

from __future__ import annotations

from repro.bench import run_experiments


def emit(title: str, body: str) -> None:
    """Print a regenerated figure/table block (shown with -s or on the
    captured report)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")


def run_experiment(experiment_id: str):
    """One catalog experiment's merged result, computed without the cache."""
    return run_experiments([experiment_id],
                           use_cache=False).results[experiment_id]
