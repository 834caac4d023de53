"""Figs 6 and 7: FaaSdom latency breakdowns, Node.js and Python, and the
provider economics of §1 on the same workload.

Each sub-figure compares OpenWhisk, gVisor and Firecracker (cold and warm)
against Fireworks (no cold/warm distinction — always a snapshot resume),
with latency broken into start-up / exec / others.

The ``billing`` experiment reads the paper's economic motivation off the
platform ledger: *"the start-up time is not charged to users"*, so every
millisecond a sandbox spends booting is resource time the provider pays
for but cannot bill.

* **billed time** — what the user pays for: execution, rounded up to the
  billing granularity
  (:data:`~repro.platforms.ledger.BILLING_GRANULARITY_MS`);
* **resource time** — what the provider's hardware spent: start-up +
  execution + control-plane overhead;
* **billable efficiency** — billed / resource: the provider's margin lever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.experiment import Experiment, render_figures, render_lines
from repro.bench.harness import (cold_and_warm, fireworks_invocation,
                                 fresh_platform, install_all, invoke_once)
from repro.bench.results import FigureResult, LatencyRow, geometric_mean
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.base import MODE_AUTO, MODE_COLD, InvocationRecord
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.ledger import InvocationLedger
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


#: A typical per-GB-second rate, applied to the paper's 512 MB sandboxes.
RATE_PER_GB_S = 0.0000166667
MEMORY_GB = 0.5


@register_result_type
@dataclass(frozen=True)
class BillingReport:
    """Provider economics of every invocation one platform completed."""

    platform: str
    invocations: int
    billed_ms: int
    resource_ms: float

    @classmethod
    def of(cls, platform: str, ledger: InvocationLedger) -> "BillingReport":
        """The report of everything *ledger* folded."""
        return cls(platform, ledger.completed, ledger.billed_ms,
                   sum(ledger.total_ms))

    @property
    def unbilled_ms(self) -> float:
        return max(0.0, self.resource_ms - self.billed_ms)

    @property
    def revenue_usd(self) -> float:
        return self.billed_ms / 1000.0 * MEMORY_GB * RATE_PER_GB_S

    @property
    def billable_efficiency(self) -> float:
        """Fraction of provider resource time that is billed (§1)."""
        if self.resource_ms == 0:
            return 1.0
        return min(1.0, self.billed_ms / self.resource_ms)

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.platform:<14} billed={self.billed_ms:10.1f}ms "
                f"resource={self.resource_ms:10.1f}ms "
                f"unbilled={self.unbilled_ms:9.1f}ms "
                f"efficiency={self.billable_efficiency:6.1%} "
                f"revenue=${self.revenue_usd:.6f}")


_BILLING_PLATFORMS = {"openwhisk": OpenWhiskPlatform,
                      "fireworks": FireworksPlatform}


def run_billing(platform: str,
                params: Optional[CalibratedParameters] = None,
                invocations: int = 20, cold_every: int = 5
                ) -> BillingReport:
    """Provider economics of *platform* over a cold-sprinkled stream of
    FaaSdom ``faas-fact`` (Node.js) invocations.

    Every ``cold_every``-th OpenWhisk request is a cold start (a fresh or
    expired function), roughly the miss profile of a mixed fleet.
    Fireworks has no cold starts at all, which is why its billable
    efficiency approaches 1.
    """
    platform_cls = _BILLING_PLATFORMS[platform]
    spec = faasdom_spec("faas-fact", "nodejs")
    served = fresh_platform(platform_cls, params)
    install_all(served, [spec])
    for index in range(invocations):
        mode = (MODE_COLD if platform_cls is OpenWhiskPlatform
                and index % cold_every == 0 else MODE_AUTO)
        invoke_once(served, spec.name, mode=mode)
    return BillingReport.of(served.name, served.ledger)


BILLING = Experiment(
    "billing", "provider economics: billed vs resource time (§1)",
    run=lambda params, seed, platform: run_billing(platform, params),
    grid={platform: {"platform": platform}
          for platform in _BILLING_PLATFORMS},
    render=render_lines)
