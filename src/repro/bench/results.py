"""Result containers and table rendering for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.serialization import register_result_type


@register_result_type
@dataclass(frozen=True)
class LatencyRow:
    """One bar of a latency figure: platform x start mode."""

    platform: str
    mode: str                 # cold | warm | snapshot (Fireworks: "both")
    startup_ms: float
    exec_ms: float
    other_ms: float

    @property
    def total_ms(self) -> float:
        return self.startup_ms + self.exec_ms + self.other_ms

    def label(self) -> str:
        """Bar label with the paper's (c)/(w)/(both) suffix."""
        suffix = {"cold": " (c)", "warm": " (w)", "snapshot": " (both)"}
        return self.platform + suffix.get(self.mode, f" ({self.mode})")


@register_result_type
@dataclass
class FigureResult:
    """One regenerated figure/table: rows plus free-form notes."""

    figure_id: str
    title: str
    rows: List[LatencyRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def row(self, platform: str, mode: str) -> LatencyRow:
        """Look up the bar for (platform, mode); KeyError if absent."""
        for row in self.rows:
            if row.platform == platform and row.mode == mode:
                return row
        raise KeyError(f"{self.figure_id}: no row {platform}/{mode}")

    def as_table(self) -> str:
        """Render as an aligned text table."""
        lines = [f"== {self.figure_id}: {self.title} ==",
                 f"{'platform':<26} {'startup':>10} {'exec':>10} "
                 f"{'others':>10} {'total':>10}"]
        for row in self.rows:
            lines.append(
                f"{row.label():<26} {row.startup_ms:>9.1f}m "
                f"{row.exec_ms:>9.1f}m {row.other_ms:>9.1f}m "
                f"{row.total_ms:>9.1f}m")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


@register_result_type
@dataclass(frozen=True)
class MemoryPoint:
    """One point of Fig 10: n microVMs -> host memory used."""

    n_vms: int
    host_used_mb: float
    mean_pss_mb: float


@register_result_type
@dataclass
class MemorySeries:
    """Fig 10 series for one platform."""

    platform: str
    points: List[MemoryPoint] = field(default_factory=list)
    max_vms_before_swap: int = 0

    def as_table(self) -> str:
        """Render as an aligned text table."""
        lines = [f"-- {self.platform}: max {self.max_vms_before_swap} "
                 "microVMs before swapping --"]
        for point in self.points:
            lines.append(
                f"  n={point.n_vms:<5d} host={point.host_used_mb:>9.0f}M "
                f"mean PSS={point.mean_pss_mb:>7.1f}M")
        return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (Fig 6(e)/7(e) summarize benchmarks this way)."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values: {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@register_result_type
@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-measured line for EXPERIMENTS.md."""

    metric: str
    paper_value: str
    measured_value: str
    holds: bool
    comment: str = ""

    def as_line(self) -> str:
        """One [OK]/[DEV] line for EXPERIMENTS.md."""
        mark = "OK " if self.holds else "DEV"
        comment = f" — {self.comment}" if self.comment else ""
        return (f"[{mark}] {self.metric}: paper {self.paper_value}, "
                f"measured {self.measured_value}{comment}")


def format_comparisons(title: str,
                       comparisons: Sequence[PaperComparison]) -> str:
    """Render a titled block of paper-vs-measured lines."""
    lines = [f"== paper-vs-measured: {title} =="]
    lines.extend(c.as_line() for c in comparisons)
    return "\n".join(lines)
