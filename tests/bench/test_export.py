"""Unit tests for CSV export."""

import csv
from pathlib import Path

import pytest

from repro.bench.engine import run_experiments
from repro.bench.export import (export_all, write_factor_csv,
                                write_fig12_csv, write_latency_figure_csv,
                                write_memory_series_csv)
from repro.bench.factors import FactorRow
from repro.bench.results import (FigureResult, LatencyRow, MemoryPoint,
                                 MemorySeries)


def _read(path: Path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


class TestWriters:
    def test_latency_csv(self, tmp_path):
        figure = FigureResult("fig6a", "t")
        figure.rows.append(LatencyRow("fireworks", "snapshot", 10, 20, 5))
        out = tmp_path / "fig6a.csv"
        write_latency_figure_csv(figure, out)
        rows = _read(out)
        assert rows[0][:2] == ["platform", "mode"]
        assert rows[1][0] == "fireworks"
        assert float(rows[1][5]) == pytest.approx(35.0)

    def test_memory_csv(self, tmp_path):
        series = MemorySeries("fireworks", max_vms_before_swap=553)
        series.points.append(MemoryPoint(50, 7000.0, 140.0))
        out = tmp_path / "fig10.csv"
        write_memory_series_csv({"fireworks": series}, out)
        rows = _read(out)
        assert rows[1] == ["fireworks", "50", "7000.0", "140.00", "553"]

    def test_factor_csv(self, tmp_path):
        rows_in = {"w": FactorRow("w", 1000.0, 400.0, 100.0)}
        out = tmp_path / "fig11.csv"
        write_factor_csv(rows_in, out)
        rows = _read(out)
        assert float(rows[1][4]) == pytest.approx(2.5)
        assert float(rows[1][5]) == pytest.approx(10.0)

    def test_fig12_csv(self, tmp_path):
        out = tmp_path / "fig12.csv"
        write_fig12_csv({"w": {"firecracker": 184.0, "+post-jit": 45.0}},
                        out)
        rows = _read(out)
        assert rows[0] == ["workload", "firecracker", "+post-jit"]
        assert rows[1] == ["w", "184.00", "45.00"]


def _export(directory, ids):
    return export_all(directory, run_experiments(ids).results)


class TestExportAll:
    def test_selected_figures_only(self, tmp_path):
        written = _export(str(tmp_path), ["fig11"])
        assert written == ["fig11.csv"]
        assert (tmp_path / "fig11.csv").exists()
        rows = _read(tmp_path / "fig11.csv")
        assert len(rows) == 9  # header + 4 benchmarks x 2 languages

    def test_fig9_export_names(self, tmp_path):
        written = _export(str(tmp_path), ["fig9"])
        assert set(written) == {"fig9a.csv", "fig9b.csv"}

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        _export(str(nested), ["fig11"])
        assert nested.is_dir()
