"""Figure 11: factor analysis of performance.

Starting from plain Firecracker (no snapshot) as the baseline, measure the
end-to-end latency gain from (1) adding a VM-level OS snapshot and (2)
adding the post-JIT snapshot — per FaaSdom benchmark, per language (§5.5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.experiment import Experiment, render_lines
from repro.bench.harness import (fireworks_invocation, fresh_platform,
                                 install_all, invoke_once)
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters
from repro.platforms.base import MODE_COLD
from repro.platforms.firecracker import (FirecrackerPlatform,
                                         FirecrackerSnapshotPlatform)
from repro.snapshot.image import STAGE_OS
from repro.workloads.faasdom import BENCHMARK_NAMES, LANGUAGES, faasdom_spec


@register_result_type
@dataclass(frozen=True)
class FactorRow:
    """One workload's factor analysis: total latency per configuration."""

    workload: str
    baseline_ms: float        # plain Firecracker, cold
    os_snapshot_ms: float     # + VM-level OS snapshot
    post_jit_ms: float        # + post-JIT snapshot (Fireworks)

    @property
    def os_snapshot_speedup(self) -> float:
        return self.baseline_ms / self.os_snapshot_ms

    @property
    def post_jit_speedup(self) -> float:
        """Total speedup of the full Fireworks design over the baseline."""
        return self.baseline_ms / self.post_jit_ms

    @property
    def post_jit_over_os_speedup(self) -> float:
        """The increment attributable to post-JIT alone."""
        return self.os_snapshot_ms / self.post_jit_ms

    def as_line(self) -> str:
        """One-line summary for the bench output."""
        return (f"{self.workload:<28} baseline={self.baseline_ms:>8.1f}m "
                f"+os-snap={self.os_snapshot_ms:>8.1f}m "
                f"({self.os_snapshot_speedup:>4.1f}x) "
                f"+post-jit={self.post_jit_ms:>7.1f}m "
                f"({self.post_jit_speedup:>5.1f}x total)")


def run_factor_analysis(benchmark: str, language: str,
                        params: Optional[CalibratedParameters] = None
                        ) -> FactorRow:
    """Factor analysis for one workload."""
    spec = faasdom_spec(benchmark, language)

    baseline_platform = fresh_platform(FirecrackerPlatform, params)
    install_all(baseline_platform, [spec])
    baseline = invoke_once(baseline_platform, spec.name, mode=MODE_COLD)

    os_platform = fresh_platform(FirecrackerSnapshotPlatform, params,
                                 stage=STAGE_OS)
    install_all(os_platform, [spec])
    os_snap = invoke_once(os_platform, spec.name)

    post_jit = fireworks_invocation(spec, params)

    return FactorRow(
        workload=spec.name,
        baseline_ms=baseline.total_ms,
        os_snapshot_ms=os_snap.total_ms,
        post_jit_ms=post_jit.total_ms)


#: The per-workload shard grid of Figs 11 and 12: one shard per
#: (benchmark, language), keyed ``benchmark-language``.
WORKLOAD_GRID = {f"{benchmark}-{language}":
                 {"benchmark": benchmark, "language": language}
                 for benchmark in BENCHMARK_NAMES for language in LANGUAGES}

FIG11 = Experiment(
    "fig11", "factor analysis of performance",
    run=lambda params, seed, benchmark, language:
        run_factor_analysis(benchmark, language, params),
    grid=WORKLOAD_GRID, render=render_lines)
