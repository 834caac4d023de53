"""Parameter-sensitivity analysis (research tool, extension).

Varies one calibrated constant across a range and reports the effect on a
headline metric, so a reader can see which conclusions are robust to
calibration error and which hinge on a constant.

Example: sweep V8's hotness threshold and watch the Node fact exec
improvement (Fig 6a's 38%) respond; sweep the snapshot working-set fraction
and watch the 133x cold-start ratio respond.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiment import Experiment
from repro.bench.serialization import register_result_type
from repro.config import CalibratedParameters, default_parameters
from repro.errors import ReproError
from repro.validation import validate_or_raise

MetricFn = Callable[[CalibratedParameters], float]


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
def metric_node_exec_improvement(params: CalibratedParameters) -> float:
    """Fig 6a's exec bar: % faster than Firecracker cold (paper: 38%)."""
    from repro.bench.faasdom_experiments import run_faasdom_benchmark
    figure = run_faasdom_benchmark("faas-fact", "nodejs", params)
    fw = figure.row("fireworks", "snapshot").exec_ms
    cold = figure.row("firecracker", "cold").exec_ms
    return 100.0 * (1.0 - fw / cold)


def metric_cold_start_speedup(params: CalibratedParameters) -> float:
    """Fig 6a's start-up ratio (paper: up to 133x)."""
    from repro.bench.faasdom_experiments import run_faasdom_benchmark
    figure = run_faasdom_benchmark("faas-fact", "nodejs", params)
    return (figure.row("firecracker", "cold").startup_ms
            / figure.row("fireworks", "snapshot").startup_ms)


def metric_consolidation_ratio(params: CalibratedParameters) -> float:
    """Fig 10's ratio (paper: 1.68x)."""
    from repro.bench.memory import FIG10_PLATFORMS, run_fig10_platform
    results = {platform: run_fig10_platform(platform, params,
                                            sample_every=400)
               for platform in FIG10_PLATFORMS}
    return (results["fireworks"].max_vms_before_swap
            / results["firecracker"].max_vms_before_swap)


METRICS: Dict[str, MetricFn] = {
    "node_exec_improvement_pct": metric_node_exec_improvement,
    "cold_start_speedup_x": metric_cold_start_speedup,
    "consolidation_ratio": metric_consolidation_ratio,
}


def _sweep_point(parameter: str, value: float, metric: str,
                 params: CalibratedParameters) -> float:
    """Measure one sweep point."""
    modified = PARAMETER_KNOBS[parameter](params, value)
    validate_or_raise(modified)
    return METRICS[metric](modified)


def run_sensitivity(parameter: str, values: Sequence[float],
                    metric: str,
                    params: Optional[CalibratedParameters] = None
                    ) -> SensitivityResult:
    """Sweep *parameter* over *values*, measuring *metric* at each point.

    The points run serially; the ``sensitivity`` experiment runs one
    point per engine shard, so ``--jobs`` spreads them over the engine's
    pool.
    """
    if parameter not in PARAMETER_KNOBS:
        raise ReproError(
            f"unknown knob {parameter!r}; knobs: "
            f"{sorted(PARAMETER_KNOBS)}")
    if metric not in METRICS:
        raise ReproError(
            f"unknown metric {metric!r}; metrics: {sorted(METRICS)}")
    base = params or default_parameters()
    points = [SensitivityPoint(value=value,
                               metric=_sweep_point(parameter, value, metric,
                                                   base))
              for value in values]
    return SensitivityResult(parameter=parameter, metric_name=metric,
                             points=points)


#: The default sensitivity suite: (knob, swept values, metric).
SENSITIVITY_SUITE: Tuple[Tuple[str, Tuple[float, ...], str], ...] = (
    ("nodejs.hotness_threshold_units", (2000.0, 4000.0, 8000.0, 16000.0),
     "node_exec_improvement_pct"),
    ("snapshot.restore_per_working_mb_ms", (0.1, 0.3, 0.9),
     "cold_start_speedup_x"),
    ("nodejs.steady_state_dirty_fraction", (0.20, 0.33, 0.50),
     "consolidation_ratio"),
)


def _suite_key(parameter: str, value: float, metric: str) -> str:
    return f"{parameter}@{value:g}->{metric}"


def _merge_suite(shards: Dict[str, SensitivityResult]
                 ) -> Dict[str, SensitivityResult]:
    """One sweep per suite knob, from its one-point shards."""
    return {
        parameter: SensitivityResult(
            parameter=parameter, metric_name=metric,
            points=[point for value in values
                    for point in shards[_suite_key(parameter, value,
                                                   metric)].points])
        for parameter, values, metric in SENSITIVITY_SUITE}


def _render_suite(result, out, chart=False) -> None:
    for sweep in result.values():
        print(sweep.as_table(), file=out)
        print(file=out)


SENSITIVITY = Experiment(
    "sensitivity", "calibration sensitivity sweeps (extension)",
    run=lambda params, seed, parameter, value, metric: run_sensitivity(
        parameter, [value], metric, params),
    grid={_suite_key(parameter, value, metric):
          {"parameter": parameter, "value": value, "metric": metric}
          for parameter, values, metric in SENSITIVITY_SUITE
          for value in values},
    merge=_merge_suite, render=_render_suite)
