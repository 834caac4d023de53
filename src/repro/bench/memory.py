"""Figures 4, 10 and 12: memory usage under snapshot sharing.

Fig 4 (§3.3): what one of 10 post-JIT snapshot clones shares with the
others, region by region.

Fig 10 (§5.4): launch faas-fact microVMs under sustained load until the
host starts swapping (vm.swappiness=60 => ~60% of 128 GB), comparing plain
Firecracker against Fireworks.  The paper measures 337 vs 565 microVMs.

Fig 12 (§5.5.2): run 10 concurrent microVMs of each benchmark and report
one microVM's PSS for baseline Firecracker, +VM-level OS snapshot, and
+post-JIT snapshot.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.bench.experiment import Experiment
from repro.bench.factors import WORKLOAD_GRID
from repro.bench.harness import fresh_platform, install_all, invoke_once
from repro.bench.results import MemoryPoint, MemorySeries
from repro.config import CalibratedParameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.base import ServerlessPlatform
from repro.platforms.firecracker import (FirecrackerPlatform,
                                         FirecrackerSnapshotPlatform)
from repro.snapshot.image import STAGE_OS
from repro.workloads.faasdom import faasdom_spec


def _consolidate_until_swap(platform: ServerlessPlatform, name: str,
                            max_vms: int, sample_every: int) -> MemorySeries:
    """Keep adding loaded microVMs until the host memory starts swapping."""
    platform.retain_workers = True
    series = MemorySeries(platform=platform.name)
    host = platform.host_memory
    for n in range(1, max_vms + 1):
        record = invoke_once(platform, name)
        assert record.worker is not None
        record.worker.enter_steady_state()
        if host.is_swapping:
            series.max_vms_before_swap = n - 1
            break
        if n % sample_every == 0 or n == 1:
            workers = platform.active_workers
            mean_pss = (sum(w.pss_mb() for w in workers) / len(workers))
            series.points.append(MemoryPoint(
                n_vms=n, host_used_mb=host.used_mb, mean_pss_mb=mean_pss))
    else:
        series.max_vms_before_swap = max_vms
    return series


#: The two platforms Fig 10 consolidates, in paper order.  Keys are the
#: platform ``name`` attributes (also the result-dict keys).
FIG10_PLATFORMS: Dict[str, Type[ServerlessPlatform]] = {
    "firecracker": FirecrackerPlatform,
    "fireworks": FireworksPlatform,
}


def run_fig10_platform(platform: str,
                       params: Optional[CalibratedParameters] = None,
                       benchmark: str = "faas-fact",
                       language: str = "nodejs",
                       max_vms: int = 800,
                       sample_every: int = 50) -> MemorySeries:
    """One platform's Fig 10 series (an independently runnable shard)."""
    spec = faasdom_spec(benchmark, language)
    fresh = fresh_platform(FIG10_PLATFORMS[platform], params)
    install_all(fresh, [spec])
    return _consolidate_until_swap(fresh, spec.name, max_vms, sample_every)


# ---------------------------------------------------------------------------
# Fig 4: what the snapshot actually shares, per region
# ---------------------------------------------------------------------------
def run_fig4_view(params: Optional[CalibratedParameters] = None,
                  benchmark: str = "faas-fact", language: str = "nodejs",
                  n_clones: int = 10) -> Dict[str, Dict[str, float]]:
    """Figure 4, measured: per-region sharing across snapshot clones.

    Returns ``{region: {"rss_mb": one clone's mapped MiB,
    "pss_mb": its proportional share, "shared_fraction": how much of the
    region is still CoW-shared}}``.  The paper's diagram says the snapshot
    shares "the states of the microVM, OS, library, runtime, and even the
    JITted code" — here are the numbers.
    """
    spec = faasdom_spec(benchmark, language)
    platform = fresh_platform(FireworksPlatform, params)
    install_all(platform, [spec])
    platform.retain_workers = True
    for _ in range(n_clones):
        invoke_once(platform, spec.name)

    sample = platform.active_workers[0].sandbox.space
    view: Dict[str, Dict[str, float]] = {}
    for region in sample.region_names():
        rss = sample.region_rss_mb(region)
        pss = sample.region_pss_mb(region)
        shared_fraction = 0.0 if rss == 0 else max(0.0, 1.0 - pss / rss)
        view[region] = {"rss_mb": rss, "pss_mb": pss,
                        "shared_fraction": shared_fraction}
    return view


# ---------------------------------------------------------------------------
# Fig 12: factor analysis, memory
# ---------------------------------------------------------------------------
#: The three configurations of the factor analysis, in paper order.
FACTOR_CONFIGS = ("firecracker", "+os-snapshot", "+post-jit")


def _mean_pss_with_n_vms(platform: ServerlessPlatform, name: str,
                         n_vms: int) -> float:
    platform.retain_workers = True
    for _ in range(n_vms):
        invoke_once(platform, name)
    workers = platform.active_workers
    return sum(worker.pss_mb() for worker in workers) / len(workers)


def _factor_platform(config: str,
                     params: Optional[CalibratedParameters]
                     ) -> ServerlessPlatform:
    if config == "firecracker":
        return fresh_platform(FirecrackerPlatform, params)
    if config == "+os-snapshot":
        return fresh_platform(FirecrackerSnapshotPlatform, params,
                              stage=STAGE_OS)
    if config == "+post-jit":
        return fresh_platform(FireworksPlatform, params)
    raise KeyError(f"unknown factor config {config!r}")


def run_fig12_workload(benchmark: str, language: str,
                       params: Optional[CalibratedParameters] = None,
                       n_vms: int = 10) -> Dict[str, float]:
    """One workload's Fig 12 column (an independently runnable shard).

    Returns ``{config: mean_pss_mb}`` over the three factor configurations.
    """
    spec = faasdom_spec(benchmark, language)
    per_config: Dict[str, float] = {}
    for config in FACTOR_CONFIGS:
        platform = _factor_platform(config, params)
        install_all(platform, [spec])
        per_config[config] = _mean_pss_with_n_vms(platform, spec.name, n_vms)
    return per_config


def fig12_improvements(results: Dict[str, Dict[str, float]]
                       ) -> Dict[str, Dict[str, float]]:
    """Percent memory saved by each factor, per workload."""
    improvements: Dict[str, Dict[str, float]] = {}
    for workload, per_config in results.items():
        base = per_config["firecracker"]
        os_snap = per_config["+os-snapshot"]
        post_jit = per_config["+post-jit"]
        improvements[workload] = {
            "os_snapshot_vs_baseline_pct": 100.0 * (base - os_snap) / base,
            "post_jit_vs_os_snapshot_pct":
                100.0 * (os_snap - post_jit) / os_snap,
        }
    return improvements


def _render_fig4(result, out, chart=False) -> None:
    for region, stats in sorted(result.items()):
        print(f"{region:<10} rss={stats['rss_mb']:6.1f}M "
              f"pss={stats['pss_mb']:6.1f}M "
              f"shared={stats['shared_fraction']:6.1%}", file=out)


def _render_fig10(result, out, chart=False) -> None:
    for series in result.values():
        print(series.as_table(), file=out)


def _render_fig12(result, out, chart=False) -> None:
    for workload, per_config in sorted(result.items()):
        cells = " ".join(f"{per_config[c]:8.1f}M" for c in FACTOR_CONFIGS)
        print(f"{workload:<28} {cells}", file=out)
    for workload, values in sorted(fig12_improvements(result).items()):
        print(f"{workload:<28} os-snap "
              f"{values['os_snapshot_vs_baseline_pct']:5.1f}%  "
              f"post-jit {values['post_jit_vs_os_snapshot_pct']:5.1f}%",
              file=out)


FIG4 = Experiment(
    "fig4", "per-region sharing across 10 clones",
    run=lambda params, seed: run_fig4_view(params), render=_render_fig4)

FIG10 = Experiment(
    "fig10", "memory usage / max consolidation",
    run=lambda params, seed, platform: run_fig10_platform(platform, params),
    grid={platform: {"platform": platform} for platform in FIG10_PLATFORMS},
    render=_render_fig10)

FIG12 = Experiment(
    "fig12", "factor analysis of memory",
    run=lambda params, seed, benchmark, language:
        run_fig12_workload(benchmark, language, params),
    grid=WORKLOAD_GRID, render=_render_fig12)
