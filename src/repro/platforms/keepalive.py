"""Adaptive keep-alive policies for the warm pool.

The paper leans on Shahrad et al. [48] ("Serverless in the Wild") for its
workload characterization; that same paper proposes the *hybrid
histogram policy*: track each function's inter-arrival times and pick the
keep-alive window per function — long enough to cover most next arrivals,
instead of one fixed fleet-wide window.

Two policies:

* :class:`FixedKeepAlive` — the deployed default (e.g. 10 minutes for
  everyone), §2.2's "defer termination for a certain period";
* :class:`HybridHistogramKeepAlive` — per-function inter-arrival histogram;
  the window is the given percentile of observed gaps (bounded), so rare
  functions stop holding memory they will not use.

Used by the keep-alive ablation to show where snapshots still win: the
*best* keep-alive policy can only trade memory against cold starts, while
Fireworks avoids the trade entirely.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import PlatformError


class KeepAlivePolicy:
    """Interface: observe arrivals, prescribe a keep-alive window."""

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Record one invocation arrival for *function*."""
        raise NotImplementedError

    def window_ms(self, function: str) -> float:
        """How long an idle sandbox of *function* should be kept."""
        raise NotImplementedError


@dataclass
class FixedKeepAlive(KeepAlivePolicy):
    """One fleet-wide window (the §2.2 status quo)."""

    fixed_window_ms: float = 600000.0

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Fixed policy learns nothing."""
        del function, now_ms

    def window_ms(self, function: str) -> float:
        """The same window for every function."""
        del function
        return self.fixed_window_ms


@dataclass
class HybridHistogramKeepAlive(KeepAlivePolicy):
    """Per-function inter-arrival histogram policy, after [48].

    The window is the ``coverage`` percentile of the observed inter-arrival
    gaps (clamped to [min, max]); until enough gaps are observed the policy
    falls back to the fleet default.  The gaps of each function are an
    ``array('d')``: one gap per arrival, unboxed.
    """

    default_window_ms: float = 600000.0
    coverage: float = 0.90
    min_window_ms: float = 60000.0      # 1 minute floor
    max_window_ms: float = 1800000.0    # 30 minute cap
    warmup_samples: int = 3
    _last_arrival: Dict[str, float] = field(default_factory=dict)
    _gaps: Dict[str, array] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise PlatformError(
                f"coverage must be in (0, 1], got {self.coverage}")

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Record the gap since this function's previous arrival."""
        last = self._last_arrival.get(function)
        if last is not None and now_ms > last:
            gaps = self._gaps.get(function)
            if gaps is None:
                gaps = self._gaps[function] = array("d")
            gaps.append(now_ms - last)
        self._last_arrival[function] = now_ms

    def window_ms(self, function: str) -> float:
        """The coverage percentile of observed gaps, clamped."""
        gaps = self._gaps.get(function, [])
        if len(gaps) < self.warmup_samples:
            return self.default_window_ms
        ordered = sorted(gaps)
        index = min(len(ordered) - 1,
                    int(self.coverage * len(ordered)))
        return min(self.max_window_ms,
                   max(self.min_window_ms, ordered[index]))

    def observed_gap_count(self, function: str) -> int:
        """How many inter-arrival gaps the policy has seen."""
        return len(self._gaps.get(function, []))

    def gap_percentile_ms(self, function: str, quantile: float):
        """The *quantile* of observed inter-arrival gaps, or ``None``
        until ``warmup_samples`` gaps are available.

        The predictive autoscaler uses this as its next-arrival estimate:
        ``last_arrival + gap_percentile(q)`` is when the next request is
        expected (q=0.5, the median) or nearly certain (q→coverage).
        """
        gaps = self._gaps.get(function, [])
        if len(gaps) < self.warmup_samples:
            return None
        ordered = sorted(gaps)
        index = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[index]

    def last_arrival_ms(self, function: str):
        """When *function* last arrived, or ``None`` if never seen."""
        return self._last_arrival.get(function)
