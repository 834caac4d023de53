"""Unit tests for the per-figure experiment drivers: structure and the
paper's tables.  The §5 bands live in tests/integration/test_paper_claims.py.
"""

import pytest

from repro.bench.engine import run_experiments
from repro.bench.faasdom_experiments import run_faasdom_benchmark
from repro.bench.factors import run_factor_analysis
from repro.bench.memory import run_fig12_workload
from repro.bench.tables import run_table1, run_table2


class TestFaasdomDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_faasdom_benchmark("faas-fact", "nodejs")

    @pytest.fixture(scope="class")
    def figure(self):
        return run_experiments(["fig6"], use_cache=False).results["fig6"]

    def test_seven_bars(self, result):
        assert len(result.rows) == 7  # 3 platforms x 2 modes + fireworks

    def test_figure_id_mapping(self, result):
        assert result.figure_id == "fig6a"
        python_result = run_faasdom_benchmark("faas-netlatency", "python")
        assert python_result.figure_id == "fig7d"

    def test_notes_present(self, result):
        assert len(result.notes) == 2
        assert "cold start-up speedup" in result.notes[1]

    def test_full_figure_has_geomean(self, figure):
        assert set(figure) == {"faas-fact", "faas-matrix-mult",
                               "faas-diskio", "faas-netlatency", "geomean"}
        geomean = figure["geomean"]
        assert len(geomean.rows) == 7

    def test_geomean_between_extremes(self, figure):
        totals = [figure[b].row("fireworks", "snapshot").total_ms
                  for b in ("faas-fact", "faas-matrix-mult", "faas-diskio",
                            "faas-netlatency")]
        geomean_total = figure["geomean"].row("fireworks",
                                              "snapshot").total_ms
        assert min(totals) <= geomean_total <= max(totals)


class TestFactorDriver:
    def test_row_fields_consistent(self):
        row = run_factor_analysis("faas-netlatency", "nodejs")
        assert row.workload == "faas-netlatency-nodejs"
        assert row.baseline_ms > row.os_snapshot_ms > row.post_jit_ms
        assert row.post_jit_speedup == pytest.approx(
            row.os_snapshot_speedup * row.post_jit_over_os_speedup)

    def test_as_line_renders(self):
        line = run_factor_analysis("faas-netlatency", "python").as_line()
        assert "baseline=" in line and "+post-jit=" in line


class TestFig12Driver:
    def test_subset_selection(self):
        per_config = run_fig12_workload("faas-netlatency", "nodejs", n_vms=4)
        assert set(per_config) == {"firecracker", "+os-snapshot",
                                   "+post-jit"}
        assert all(value > 0 for value in per_config.values())


class TestTables:
    def test_table1_six_rows_paper_order(self):
        rows = run_table1()
        assert [row["platform"] for row in rows] == [
            "firecracker", "openwhisk", "gvisor", "cloudflare-workers",
            "catalyzer", "fireworks"]

    def test_table1_isolation_and_efficiency_labels(self):
        by_name = {row["platform"]: row for row in run_table1()}
        assert by_name["fireworks"]["isolation"] == "High (VM)"
        assert by_name["firecracker"]["isolation"] == "High (VM)"
        assert "container" in by_name["openwhisk"]["isolation"].lower()
        assert "extreme" in by_name["fireworks"]["performance"].lower()
        assert "extreme" in \
            by_name["fireworks"]["memory_efficiency"].lower()

    def test_table2_applications(self):
        rows = run_table2()
        assert {row["application"] for row in rows} == {
            "FaaSdom: faas-fact",
            "FaaSdom: faas-matrix-mult",
            "FaaSdom: faas-diskio",
            "FaaSdom: faas-netlatency",
            "ServerlessBench: alexa-skills",
            "ServerlessBench: data-analysis",
        }
        faasdom = [row for row in rows
                   if row["application"].startswith("FaaSdom")]
        assert all(row["language"] == "Node.js, Python" for row in faasdom)

    def test_table2_languages(self):
        rows = run_table2()
        serverlessbench = [row for row in rows
                           if row["application"].startswith("Serverless")]
        assert all(row["language"] == "Node.js"
                   for row in serverlessbench)
