"""Parameter-sensitivity analysis (research tool, extension).

Varies one calibrated constant across a range and reports the effect on a
headline metric, so a reader can see which conclusions are robust to
calibration error and which hinge on a constant.

Example: sweep V8's hotness threshold and watch the Node fact exec
improvement (Fig 6a's 38%) respond; sweep the snapshot working-set fraction
and watch the 133x cold-start ratio respond.

Each metric is a scorecard claim's reader (:data:`METRICS`), and a sweep
point reads that claim's catalog shards at the knob-modified parameters.
The ``sensitivity`` experiment is derived: it declares those reads, so a
point whose parameters equal the run's reads the run's own shards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.experiment import Cells, Experiment, Read
from repro.bench.paper import claim
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters
from repro.errors import ReproError
from repro.validation import validate_or_raise


@register_result_type
@dataclass(frozen=True)
class SensitivityPoint:
    """One swept value and the metric it produced."""

    value: float
    metric: float


@register_result_type
@dataclass(frozen=True)
class SensitivityResult:
    """A full sweep of one parameter against one metric."""

    parameter: str
    metric_name: str
    points: List[SensitivityPoint]

    @property
    def metric_range(self) -> float:
        values = [point.metric for point in self.points]
        return max(values) - min(values)

    def as_table(self) -> str:
        """Render the sweep as an aligned table."""
        lines = [f"-- sensitivity: {self.metric_name} vs "
                 f"{self.parameter} --"]
        for point in self.points:
            lines.append(f"  {self.parameter}={point.value:<12g} "
                         f"{self.metric_name}={point.metric:.2f}")
        return "\n".join(lines)


def _override_runtime(params: CalibratedParameters, language: str,
                      **fields) -> CalibratedParameters:
    runtimes = dict(params.runtimes)
    runtimes[language] = replace(runtimes[language], **fields)
    return params.with_overrides(runtimes=runtimes)


def _override_layout(params: CalibratedParameters, language: str,
                     **fields) -> CalibratedParameters:
    layouts = dict(params.memory_layouts)
    layouts[language] = replace(layouts[language], **fields)
    return params.with_overrides(memory_layouts=layouts)


def _override_snapshot(params: CalibratedParameters,
                       **fields) -> CalibratedParameters:
    return params.with_overrides(
        snapshot=replace(params.snapshot, **fields))


#: parameter name -> function(base_params, value) -> new params
PARAMETER_KNOBS: Dict[str, Callable[[CalibratedParameters, float],
                                    CalibratedParameters]] = {
    "nodejs.hotness_threshold_units": lambda p, v: _override_runtime(
        p, "nodejs", hotness_threshold_units=v),
    "nodejs.jit_compile_ms_per_kunit": lambda p, v: _override_runtime(
        p, "nodejs", jit_compile_ms_per_kunit=v),
    "python.interp_units_per_ms": lambda p, v: _override_runtime(
        p, "python", interp_units_per_ms=v),
    "nodejs.snapshot_working_set_fraction": lambda p, v: _override_layout(
        p, "nodejs", snapshot_working_set_mb_fraction=v),
    "snapshot.restore_per_working_mb_ms": lambda p, v: _override_snapshot(
        p, restore_per_working_mb_ms=v),
    "nodejs.steady_state_dirty_fraction": lambda p, v: _override_layout(
        p, "nodejs", steady_state_dirty_fraction=v),
}


# -- headline metrics ---------------------------------------------------------
#: metric name -> the scorecard claim reader it is.
METRICS: Dict[str, Callable[[Cells], float]] = {
    # Fig 6a's exec bar: % faster than Firecracker cold (paper: 38%).
    "node_exec_improvement_pct":
        claim("Node fact exec improvement (cold)").read,
    # Fig 6a's start-up ratio (paper: up to 133x).
    "cold_start_speedup_x": claim("Node fact cold start-up speedup").read,
    # Fig 10's ratio (paper: 1.68x).
    "consolidation_ratio": claim("consolidation ratio").read,
}

#: metric name -> the catalog shards its reader reads.
METRIC_SHARDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "node_exec_improvement_pct": (("fig6", "faas-fact"),),
    "cold_start_speedup_x": (("fig6", "faas-fact"),),
    "consolidation_ratio": (("fig10", "firecracker"), ("fig10", "fireworks")),
}


def _point_params(parameter: str, value: float,
                  params: CalibratedParameters) -> CalibratedParameters:
    """*params* with *parameter* set to *value*, validated."""
    modified = PARAMETER_KNOBS[parameter](params, value)
    validate_or_raise(modified)
    return modified


def _sweep(cells: Cells, parameter: str, values: Sequence[float],
           metric: str) -> SensitivityResult:
    """*metric* at each of *parameter*'s *values*, read through *cells*."""
    points = [SensitivityPoint(value=value, metric=METRICS[metric](
                  cells.at(_point_params(parameter, value, cells.params))))
              for value in values]
    return SensitivityResult(parameter=parameter, metric_name=metric,
                             points=points)


def run_sensitivity(parameter: str, values: Sequence[float],
                    metric: str,
                    params: Optional[CalibratedParameters] = None
                    ) -> SensitivityResult:
    """Sweep *parameter* over *values*, measuring *metric* at each point.

    The points run serially, each shard once; the ``sensitivity``
    experiment plans its points' shards with the rest of an engine run,
    so ``--jobs`` spreads them over the engine's pool.
    """
    if parameter not in PARAMETER_KNOBS:
        raise ReproError(
            f"unknown knob {parameter!r}; knobs: "
            f"{sorted(PARAMETER_KNOBS)}")
    if metric not in METRICS:
        raise ReproError(
            f"unknown metric {metric!r}; metrics: {sorted(METRICS)}")
    return _sweep(Cells(params), parameter, values, metric)


#: The default sensitivity suite: (knob, swept values, metric).
SENSITIVITY_SUITE: Tuple[Tuple[str, Tuple[float, ...], str], ...] = (
    ("nodejs.hotness_threshold_units", (2000.0, 4000.0, 8000.0, 16000.0),
     "node_exec_improvement_pct"),
    ("snapshot.restore_per_working_mb_ms", (0.1, 0.3, 0.9),
     "cold_start_speedup_x"),
    ("nodejs.steady_state_dirty_fraction", (0.20, 0.33, 0.50),
     "consolidation_ratio"),
)


def _suite_reads(params: CalibratedParameters) -> Iterator[Read]:
    """Every suite point's metric shards, at the point's parameters."""
    for parameter, values, metric in SENSITIVITY_SUITE:
        for value in values:
            modified = _point_params(parameter, value, params)
            for experiment, key in METRIC_SHARDS[metric]:
                yield Read(experiment, key, modified,
                           point=f"{parameter}@{value:g}")


def _derive_suite(cells: Cells) -> Dict[str, SensitivityResult]:
    """One sweep per suite knob."""
    return {parameter: _sweep(cells, parameter, values, metric)
            for parameter, values, metric in SENSITIVITY_SUITE}


def _render_suite(result, out, chart=False) -> None:
    for sweep in result.values():
        print(sweep.as_table(), file=out)
        print(file=out)


SENSITIVITY = Experiment(
    "sensitivity", "calibration sensitivity sweeps (extension)",
    reads=_suite_reads, derive=_derive_suite, render=_render_suite)
