"""CSV export of regenerated figures — for plotting outside the harness.

``export_all(directory, results)`` writes one CSV per artifact of merged
engine results, mirroring the bar/series structure of the paper's plots;
``repro export`` reads those results through the result cache.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, List

from repro.bench.factors import FactorRow
from repro.bench.results import FigureResult, MemorySeries


def write_latency_figure_csv(figure: FigureResult, path: Path) -> None:
    """One row per bar: platform, mode, startup/exec/other/total ms."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["platform", "mode", "startup_ms", "exec_ms",
                         "other_ms", "total_ms"])
        for row in figure.rows:
            writer.writerow([row.platform, row.mode,
                             f"{row.startup_ms:.3f}", f"{row.exec_ms:.3f}",
                             f"{row.other_ms:.3f}", f"{row.total_ms:.3f}"])


def write_memory_series_csv(series_by_platform: Dict[str, MemorySeries],
                            path: Path) -> None:
    """Fig 10: platform, n_vms, host MB, mean PSS, max-before-swap."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["platform", "n_vms", "host_used_mb",
                         "mean_pss_mb", "max_vms_before_swap"])
        for platform, series in series_by_platform.items():
            for point in series.points:
                writer.writerow([platform, point.n_vms,
                                 f"{point.host_used_mb:.1f}",
                                 f"{point.mean_pss_mb:.2f}",
                                 series.max_vms_before_swap])


def write_factor_csv(rows: Dict[str, FactorRow], path: Path) -> None:
    """Fig 11: workload, per-configuration totals and speedups."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["workload", "baseline_ms", "os_snapshot_ms",
                         "post_jit_ms", "os_snapshot_speedup",
                         "post_jit_total_speedup"])
        for workload, row in rows.items():
            writer.writerow([workload, f"{row.baseline_ms:.2f}",
                             f"{row.os_snapshot_ms:.2f}",
                             f"{row.post_jit_ms:.2f}",
                             f"{row.os_snapshot_speedup:.3f}",
                             f"{row.post_jit_speedup:.3f}"])


def write_fig12_csv(results: Dict[str, Dict[str, float]],
                    path: Path) -> None:
    """Fig 12: workload, per-configuration mean PSS."""
    configs: List[str] = []
    for per_config in results.values():
        configs = list(per_config)
        break
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["workload"] + configs)
        for workload, per_config in sorted(results.items()):
            writer.writerow([workload] + [f"{per_config[c]:.2f}"
                                          for c in configs])


#: The experiments ``repro export`` writes, in write order.
EXPORTED = ("fig6", "fig7", "fig9", "fig10", "fig11", "fig12")

#: One-CSV experiments: id -> writer of the merged result.  The others
#: are latency figures, written one CSV per sub-figure.
_TABLE_WRITERS = {"fig10": write_memory_series_csv,
                  "fig11": write_factor_csv,
                  "fig12": write_fig12_csv}


def export_all(directory: str, results: Dict[str, Any]) -> List[str]:
    """Write one CSV per artifact of *results* into *directory*.

    *results* maps ids of :data:`EXPORTED` to merged results, as
    :func:`~repro.bench.engine.run_experiments` returns them.  Returns
    the written file names, in the order of *results*.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for figure_id, result in results.items():
        if figure_id in _TABLE_WRITERS:
            name = f"{figure_id}.csv"
            _TABLE_WRITERS[figure_id](result, out_dir / name)
            written.append(name)
            continue
        for figure in result.values():
            name = f"{figure.figure_id}.csv"
            write_latency_figure_csv(figure, out_dir / name)
            written.append(name)
    return written
