"""Unit tests for parameter-sensitivity analysis."""

import pytest

from repro.bench.sensitivity import (METRICS, PARAMETER_KNOBS,
                                     run_sensitivity)
from repro.errors import ReproError


class TestKnobsAndMetrics:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ReproError, match="knob"):
            run_sensitivity("nonsense.knob", [1.0],
                            "cold_start_speedup_x")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ReproError, match="metric"):
            run_sensitivity("nodejs.hotness_threshold_units", [1.0],
                            "nonsense")

    def test_registries_nonempty(self):
        assert len(PARAMETER_KNOBS) >= 5
        assert len(METRICS) >= 3

    def test_invalid_swept_value_rejected(self):
        from repro.validation import InvalidParametersError
        with pytest.raises(InvalidParametersError):
            run_sensitivity("nodejs.snapshot_working_set_fraction",
                            [1.5], "cold_start_speedup_x")


class TestDirections:
    """Each sweep must move the metric in the physically right direction."""

    def test_hotness_threshold_raises_exec_improvement(self):
        result = run_sensitivity(
            "nodejs.hotness_threshold_units", [2000.0, 20000.0],
            "node_exec_improvement_pct")
        # Later tier-up -> baselines interpret longer -> Fireworks' edge
        # grows.
        assert result.points[0].metric < result.points[1].metric

    def test_working_set_lowers_cold_start_speedup(self):
        result = run_sensitivity(
            "nodejs.snapshot_working_set_fraction", [0.05, 0.60],
            "cold_start_speedup_x")
        # Bigger working set -> slower restore -> smaller speedup.
        assert result.points[0].metric > result.points[1].metric

    def test_steady_dirty_lowers_consolidation(self):
        result = run_sensitivity(
            "nodejs.steady_state_dirty_fraction", [0.1, 0.8],
            "consolidation_ratio")
        # More CoW breakage under load -> less sharing -> fewer extra VMs.
        assert result.points[0].metric > result.points[1].metric

    def test_metric_range_reported(self):
        result = run_sensitivity(
            "snapshot.restore_per_working_mb_ms", [0.1, 1.0],
            "cold_start_speedup_x")
        assert result.metric_range > 0
        assert "sensitivity" in result.as_table()


class TestHeadlineSweeps:
    """The two four-point sweeps behind the Fig 6a claims."""

    def test_exec_improvement_tracks_hotness_threshold(self):
        sweep = run_sensitivity("nodejs.hotness_threshold_units",
                                [2000.0, 4000.0, 8000.0, 16000.0],
                                "node_exec_improvement_pct")
        values = [point.metric for point in sweep.points]
        assert values == sorted(values)
        # The calibrated point (8000 units) sits at the paper's 38%.
        assert abs(sweep.points[2].metric - 38.0) < 4.0

    def test_cold_start_speedup_is_the_working_set_lever(self):
        """The cold-start speedup falls with the snapshot working set
        (REAP's lever, arXiv:2101.09355), and the claimed 59.8x-133x
        range is reachable within plausible working sets."""
        sweep = run_sensitivity("nodejs.snapshot_working_set_fraction",
                                [0.05, 0.15, 0.30, 0.60],
                                "cold_start_speedup_x")
        values = [point.metric for point in sweep.points]
        assert values == sorted(values, reverse=True)
        assert values[0] > 133
        assert values[-1] < 80
