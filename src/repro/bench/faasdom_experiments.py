"""Figs 6 and 7: FaaSdom latency breakdowns, Node.js and Python.

Each sub-figure compares OpenWhisk, gVisor and Firecracker (cold and warm)
against Fireworks (no cold/warm distinction — always a snapshot resume),
with latency broken into start-up / exec / others.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.experiment import Experiment, render_figures
from repro.bench.harness import (cold_and_warm, fireworks_invocation)
from repro.bench.results import FigureResult, LatencyRow, geometric_mean
from repro.config import CalibratedParameters
from repro.platforms.base import InvocationRecord
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.trace import verify_invocation
from repro.workloads.faasdom import BENCHMARK_NAMES, faasdom_spec

_SUBFIGURES = {
    "faas-fact": "a",
    "faas-matrix-mult": "b",
    "faas-diskio": "c",
    "faas-netlatency": "d",
}

_FIGURE_BY_LANGUAGE = {"nodejs": "6", "python": "7"}


def _row_from(record: InvocationRecord, platform: str,
              mode: str) -> LatencyRow:
    # The bar segments come from the invocation's span tree, not from
    # fields tallied in parallel with it; verify_invocation asserts both
    # agree (root span duration == end-to-end latency, exactly) before the
    # figure is built.
    breakdown = verify_invocation(record)
    return LatencyRow(platform=platform, mode=mode,
                      startup_ms=breakdown.startup_ms,
                      exec_ms=breakdown.exec_ms,
                      other_ms=breakdown.other_ms)


def run_faasdom_benchmark(benchmark: str, language: str,
                          params: Optional[CalibratedParameters] = None
                          ) -> FigureResult:
    """One sub-figure: latency breakdown of *benchmark* in *language*."""
    spec = faasdom_spec(benchmark, language)
    figure = _FIGURE_BY_LANGUAGE[language]
    letter = _SUBFIGURES[benchmark]
    result = FigureResult(
        figure_id=f"fig{figure}{letter}",
        title=f"{benchmark} ({language}) latency breakdown")

    for platform_cls, label in ((OpenWhiskPlatform, "openwhisk"),
                                (GVisorPlatform, "gvisor"),
                                (FirecrackerPlatform, "firecracker")):
        cold, warm = cold_and_warm(platform_cls, spec, params)
        result.rows.append(_row_from(cold, label, "cold"))
        result.rows.append(_row_from(warm, label, "warm"))

    fireworks = fireworks_invocation(spec, params)
    result.rows.append(_row_from(fireworks, "fireworks", "snapshot"))

    fw_total = result.row("fireworks", "snapshot").total_ms
    worst_cold = max(result.row(p, "cold").total_ms
                     for p in ("openwhisk", "gvisor", "firecracker"))
    result.notes.append(
        f"fireworks end-to-end is {worst_cold / fw_total:.1f}x faster than "
        "the slowest cold start")
    fc_cold_startup = result.row("firecracker", "cold").startup_ms
    result.notes.append(
        f"cold start-up speedup vs firecracker: "
        f"{fc_cold_startup / result.row('fireworks', 'snapshot').startup_ms:.0f}x")
    return result


def build_geomean(results: Dict[str, FigureResult],
                  language: str) -> FigureResult:
    """Sub-figure (e): the geometric mean over the four benchmark results.

    Pure post-processing — the parallel engine calls this when merging
    per-benchmark shards, so it must derive everything from *results*.
    """
    figure = _FIGURE_BY_LANGUAGE[language]
    geomean = FigureResult(
        figure_id=f"fig{figure}e",
        title=f"geometric mean of FaaSdom benchmarks ({language})")
    combos: List[Tuple[str, str]] = [
        ("openwhisk", "cold"), ("openwhisk", "warm"),
        ("gvisor", "cold"), ("gvisor", "warm"),
        ("firecracker", "cold"), ("firecracker", "warm"),
        ("fireworks", "snapshot"),
    ]
    for platform, mode in combos:
        rows = [results[b].row(platform, mode) for b in BENCHMARK_NAMES]
        geomean.rows.append(LatencyRow(
            platform=platform, mode=mode,
            startup_ms=geometric_mean([max(r.startup_ms, 0.1) for r in rows]),
            exec_ms=geometric_mean([max(r.exec_ms, 0.1) for r in rows]),
            other_ms=geometric_mean([max(r.other_ms, 0.1) for r in rows])))
    fw_total = geomean.row("fireworks", "snapshot").total_ms
    worst = max(row.total_ms for row in geomean.rows)
    geomean.notes.append(
        f"overall fireworks speedup (geomean, vs slowest): "
        f"{worst / fw_total:.1f}x")
    return geomean


def _faasdom_experiment(language: str, title: str) -> Experiment:
    """Fig 6 or Fig 7: one shard per FaaSdom benchmark, plus the geomean
    sub-figure built at merge time."""

    def merge(shards: Dict[str, FigureResult]) -> Dict[str, FigureResult]:
        results = {benchmark: shards[benchmark]
                   for benchmark in BENCHMARK_NAMES}
        results["geomean"] = build_geomean(results, language)
        return results

    return Experiment(
        f"fig{_FIGURE_BY_LANGUAGE[language]}", title,
        run=lambda params, seed, benchmark, language:
            run_faasdom_benchmark(benchmark, language, params),
        grid={benchmark: {"benchmark": benchmark, "language": language}
              for benchmark in BENCHMARK_NAMES},
        merge=merge, render=render_figures)


FIG6 = _faasdom_experiment("nodejs", "FaaSdom latency breakdown, Node.js")
FIG7 = _faasdom_experiment("python", "FaaSdom latency breakdown, Python")
