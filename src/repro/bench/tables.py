"""Tables 1 and 2 and the §5.1 snapshot-creation-time measurements."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.experiment import Experiment
from repro.bench.harness import fresh_platform, install_all
from repro.config import CalibratedParameters
from repro.core.fireworks import FireworksPlatform
from repro.platforms.firecracker import FirecrackerPlatform
from repro.platforms.gvisor_platform import GVisorPlatform
from repro.platforms.openwhisk import OpenWhiskPlatform
from repro.sandbox.isolate import V8Isolate
from repro.workloads.faasdom import all_faasdom_specs
from repro.workloads.serverlessbench import (alexa_skills_chain,
                                             data_analysis_chain)


def run_table1(params: Optional[CalibratedParameters] = None
               ) -> List[Dict[str, str]]:
    """Table 1: the design comparison of serverless platforms.

    Rows come from each platform's declared traits; the rows the paper lists
    for Cloudflare Workers and Catalyzer are included as static entries
    (Catalyzer's source is not public — §5.1 — and Workers is a commercial
    runtime; both appear in the table only, never in the measured figures).
    """
    from repro.platforms.catalyzer import CatalyzerPlatform

    rows = []
    for platform_cls in (FirecrackerPlatform, OpenWhiskPlatform,
                         GVisorPlatform):
        platform = fresh_platform(platform_cls, params)
        rows.append(platform.table1_row())
    rows.append({
        "platform": "cloudflare-workers",
        "isolation": f"Low (runtime: {V8Isolate.isolation})",
        "performance": "High (pre-launching)",
        "memory_efficiency": "High (process sharing)",
    })
    rows.append(fresh_platform(CatalyzerPlatform, params).table1_row())
    fireworks = fresh_platform(FireworksPlatform, params)
    rows.append(fireworks.table1_row())
    return rows


def run_table2() -> List[Dict[str, str]]:
    """Table 2: the tested serverless applications."""
    rows = []
    seen_descriptions = set()
    for spec in all_faasdom_specs():
        base_name = spec.name.rsplit("-", 1)[0]
        if base_name in seen_descriptions:
            continue
        seen_descriptions.add(base_name)
        rows.append({
            "application": f"FaaSdom: {base_name}",
            "description": spec.description,
            "language": "Node.js, Python",
        })
    for chain in (alexa_skills_chain(), data_analysis_chain()):
        rows.append({
            "application": f"ServerlessBench: {chain.name}",
            "description": chain.description,
            "language": "Node.js",
        })
    return rows


def run_snapshot_creation_times(
        params: Optional[CalibratedParameters] = None
        ) -> Dict[str, Dict[str, float]]:
    """§5.1: post-JIT snapshot creation time per FaaSdom benchmark.

    The paper reports 0.36-0.47 s for Node.js and 0.38-0.44 s for Python
    (snapshot write only), with npm installation dominating the Node install
    and JIT compilation scaling with app complexity for Python.
    """
    results: Dict[str, Dict[str, float]] = {}
    platform = fresh_platform(FireworksPlatform, params)
    install_all(platform, all_faasdom_specs())
    for name, report in platform.install_reports.items():
        results[name] = {
            "annotate_ms": report.annotate_ms,
            "boot_ms": report.boot_ms,
            "jit_ms": report.jit_ms,
            "snapshot_ms": report.snapshot_ms,
            "total_ms": report.total_ms,
        }
    return results


def _render_table1(rows, out, chart=False) -> None:
    for row in rows:
        print(f"{row['platform']:<22} {row['isolation']:<22} "
              f"{row['performance']:<26} {row['memory_efficiency']}",
              file=out)


def _render_table2(rows, out, chart=False) -> None:
    for row in rows:
        print(f"{row['application']:<34} {row['description']:<50} "
              f"{row['language']}", file=out)


def _render_snapshot_creation(result, out, chart=False) -> None:
    for fn, parts in sorted(result.items()):
        print(f"{fn:<28} snapshot={parts['snapshot_ms']:.0f}ms "
              f"total-install={parts['total_ms']:.0f}ms", file=out)


TABLE1 = Experiment(
    "table1", "design comparison of serverless platforms",
    run=lambda params, seed: run_table1(params), render=_render_table1)

TABLE2 = Experiment(
    "table2", "tested serverless applications",
    run=lambda params, seed: run_table2(), render=_render_table2)

SNAPSHOT_CREATION = Experiment(
    "snapshot-creation", "post-JIT snapshot creation times (§5.1)",
    run=lambda params, seed: run_snapshot_creation_times(params),
    render=_render_snapshot_creation)
