"""The paper's headline claims, declared once and evaluated programmatically.

:data:`CLAIMS` lists the §5 headline claims in paper order.  Each
:class:`Claim` holds the paper's value, the band the measured value must
land in, and a reader that takes that value from catalog shard results
(:class:`Cells`).  The scorecard (:func:`headline_comparisons`), the
tier-1 band test and the EXPERIMENTS.md claim table all read this one
tuple.  A claim *holds* when the measured value lands in its band
(generous: a simulator reproduces shapes, not testbeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.experiment import SINGLE, Experiment
from repro.bench.memory import fig12_improvements
from repro.bench.results import PaperComparison, format_comparisons
from repro.config import CalibratedParameters


class Cells:
    """Catalog shard results, each computed on its first read and kept.

    ``cells(experiment_id, shard_key)`` runs one shard of the catalog
    experiment exactly as the engine does, so a claim reads the same
    floats as ``repro figure <id>``.
    """

    def __init__(self, params: Optional[CalibratedParameters] = None) -> None:
        # The engine's catalog imports this module: import it lazily.
        from repro.bench.engine import DEFAULT_SEED, experiment_registry
        self._registry = experiment_registry()
        self._params = params
        self._seed = DEFAULT_SEED
        self._results: Dict[Tuple[str, str], Any] = {}

    def __call__(self, experiment_id: str, shard_key: str = SINGLE) -> Any:
        cell = (experiment_id, shard_key)
        if cell not in self._results:
            experiment = self._registry[experiment_id]
            shard = next(shard for shard in experiment.shards
                         if shard.key == shard_key)
            self._results[cell] = experiment.run(
                self._params, self._seed, **shard.kwargs_dict())
        return self._results[cell]


@dataclass(frozen=True)
class Claim:
    """One headline claim: holds when ``lo <= read(cells) <= hi``."""

    metric: str
    paper: str
    lo: float
    hi: float
    read: Callable[[Cells], float]
    fmt: str = "{:.1f}x"
    comment: str = ""

    @property
    def band(self) -> str:
        """The band as a closed interval, in the measured value's unit."""
        return f"[{self.lo:g}, {self.hi:g}]"

    def compare(self, cells: Cells) -> PaperComparison:
        """Read the measured value and check it against the band."""
        measured = self.read(cells)
        return PaperComparison(
            metric=self.metric, paper_value=self.paper,
            measured_value=self.fmt.format(measured),
            holds=self.lo <= measured <= self.hi, comment=self.comment)


def _fw(cells: Cells, experiment: str, benchmark: str):
    return cells(experiment, benchmark).row("fireworks", "snapshot")


def _speedup(experiment: str, benchmark: str, field: str,
             platform: str = "firecracker", mode: str = "cold"
             ) -> Callable[[Cells], float]:
    """Reader: *platform*/*mode*'s *field* over Fireworks' in one FaaSdom
    benchmark cell of Fig 6 or Fig 7."""
    def read(cells: Cells) -> float:
        row = cells(experiment, benchmark).row(platform, mode)
        return getattr(row, field) / getattr(
            _fw(cells, experiment, benchmark), field)
    return read


def _node_exec_improvement_pct(cells: Cells) -> float:
    cold = cells("fig6", "faas-fact").row("firecracker", "cold")
    return 100 * (1 - _fw(cells, "fig6", "faas-fact").exec_ms
                  / cold.exec_ms)


def _netlatency_e2e_speedup(cells: Cells) -> float:
    net = cells("fig6", "faas-netlatency")
    return (max(net.row(p, "cold").total_ms
                for p in ("openwhisk", "gvisor", "firecracker"))
            / _fw(cells, "fig6", "faas-netlatency").total_ms)


def _vms_before_swap(platform: str) -> Callable[[Cells], float]:
    return lambda cells: float(cells("fig10", platform).max_vms_before_swap)


def _consolidation_ratio(cells: Cells) -> float:
    return (cells("fig10", "fireworks").max_vms_before_swap
            / cells("fig10", "firecracker").max_vms_before_swap)


def _post_jit_saving_pct(workload: str) -> Callable[[Cells], float]:
    return lambda cells: fig12_improvements(
        {workload: cells("fig12", workload)}
    )[workload]["post_jit_vs_os_snapshot_pct"]


def _slowest_snapshot_s(language: str) -> Callable[[Cells], float]:
    return lambda cells: max(
        v["snapshot_ms"] for k, v in cells("snapshot-creation").items()
        if k.endswith(language)) / 1000.0


#: The §5 headline claims, in paper order (the scorecard's line order).
CLAIMS: Tuple[Claim, ...] = (
    # -- Fig 6 (Node.js) -----------------------------------------------------
    Claim("Node fact cold start-up speedup", "up to 133x", 80, 200,
          _speedup("fig6", "faas-fact", "startup_ms"), "{:.0f}x"),
    Claim("Node fact warm start-up speedup", "up to 3.8x", 2.0, 6.0,
          _speedup("fig6", "faas-fact", "startup_ms", mode="warm")),
    Claim("Node fact exec improvement (cold)", "38% faster", 25, 50,
          _node_exec_improvement_pct, "{:.0f}%"),
    Claim("Node diskio exec vs slowest framework", "up to 9.2x", 6, 12,
          _speedup("fig6", "faas-diskio", "exec_ms", platform="gvisor")),
    Claim("Node netlatency e2e vs worst cold", "22x", 20, 150,
          _netlatency_e2e_speedup,
          comment="start-up is workload-independent here, inflating the "
                  "short-benchmark ratio"),
    # -- Fig 7 (Python) -------------------------------------------------------
    Claim("Python fact cold start-up speedup", "59.8x", 40, 90,
          _speedup("fig7", "faas-fact", "startup_ms"), "{:.0f}x"),
    Claim("Python fact exec speedup (Numba)", "20x", 15, 25,
          _speedup("fig7", "faas-fact", "exec_ms")),
    Claim("Python matmul exec speedup", "up to 80x", 55, 95,
          _speedup("fig7", "faas-matrix-mult", "exec_ms"), "{:.0f}x"),
    # -- Fig 10 ------------------------------------------------------------------
    Claim("microVMs before swapping (Firecracker)", "337", 280, 400,
          _vms_before_swap("firecracker"), "{:.0f}"),
    Claim("microVMs before swapping (Fireworks)", "565", 480, 650,
          _vms_before_swap("fireworks"), "{:.0f}"),
    Claim("consolidation ratio", "1.68x", 1.45, 1.932,
          _consolidation_ratio, "{:.2f}x"),
    # -- Fig 12 ------------------------------------------------------------------
    Claim("Node post-JIT extra memory saving", "up to 74%", 25, 80,
          _post_jit_saving_pct("faas-fact-nodejs"), "{:.0f}%"),
    Claim("Python post-JIT extra memory saving", "none (Numba duplication)",
          -40, 10, _post_jit_saving_pct("faas-fact-python"), "{:.0f}%"),
    # -- §5.1 snapshot creation -----------------------------------------------
    Claim("snapshot creation, Node.js", "0.36-0.47 s", 0.36, 0.47,
          _slowest_snapshot_s("nodejs"), "{:.2f}s"),
    Claim("snapshot creation, Python", "0.38-0.44 s", 0.36, 0.47,
          _slowest_snapshot_s("python"), "{:.2f}s"),
)


def headline_comparisons(params: Optional[CalibratedParameters] = None
                         ) -> List[PaperComparison]:
    """Evaluate every headline claim; returns them in paper order."""
    cells = Cells(params)
    return [claim.compare(cells) for claim in CLAIMS]


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
