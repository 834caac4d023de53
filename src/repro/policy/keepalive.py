"""The keep-alive seam: per-function arrival history → idle window.

The paper leans on Shahrad et al. [48] ("Serverless in the Wild") for its
workload characterization; that same paper proposes the *hybrid
histogram policy*: track each function's inter-arrival times and pick the
keep-alive window per function — long enough to cover most next arrivals,
instead of one fixed fleet-wide window.

Two built-in policies:

* :class:`FixedKeepAlive` — the deployed default (e.g. 10 minutes for
  everyone), §2.2's "defer termination for a certain period";
* :class:`HybridHistogramKeepAlive` — per-function inter-arrival histogram;
  the window is the given percentile of observed gaps (bounded), so rare
  functions stop holding memory they will not use.

:class:`DslKeepAlivePolicy` runs a compiled ``keepalive`` document over
the same history, exposed to the tree as the ``observed_gaps`` and
``gap_percentile_ms(q)`` signals.  That history is an
:class:`ArrivalHistory`, which the predictive autoscale policies read
too.

Used by the keep-alive ablation to show where snapshots still win: the
*best* keep-alive policy can only trade memory against cold starts, while
Fireworks avoids the trade entirely.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import PlatformError, ValidationError
from repro.policy.dsl import SOURCE_DSL, CompiledPolicy, bind_policy


class ArrivalHistory:
    """Each function's last arrival and every inter-arrival gap since.

    A gap is recorded only when an arrival lands strictly after the
    previous one, into one ``array('d')`` per function: one gap per
    arrival, unboxed.
    """

    def __init__(self) -> None:
        self._last_arrival: Dict[str, float] = {}
        self._gaps: Dict[str, array] = {}

    def observe(self, function: str, now_ms: float) -> None:
        """Record one arrival of *function* at *now_ms*."""
        last = self._last_arrival.get(function)
        if last is not None and now_ms > last:
            gaps = self._gaps.get(function)
            if gaps is None:
                gaps = self._gaps[function] = array("d")
            gaps.append(now_ms - last)
        self._last_arrival[function] = now_ms

    def last_arrival_ms(self, function: str) -> Optional[float]:
        """When *function* last arrived, or ``None`` if never seen."""
        return self._last_arrival.get(function)

    def gap_count(self, function: str) -> int:
        """How many inter-arrival gaps of *function* were observed."""
        return len(self._gaps.get(function, ()))

    def gap_percentile_ms(self, function: str, q: float) -> float:
        """The *q*-th percentile of *function*'s observed gaps (``inf``
        until any gap is observed)."""
        gaps = self._gaps.get(function)
        if not gaps:
            return math.inf
        ordered = sorted(gaps)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


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
    gaps (clamped to [min, max]); until ``warmup_samples`` gaps are
    observed the policy falls back to the fleet default.
    """

    default_window_ms: float = 600000.0
    coverage: float = 0.90
    min_window_ms: float = 60000.0      # 1 minute floor
    max_window_ms: float = 1800000.0    # 30 minute cap
    warmup_samples: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise PlatformError(
                f"coverage must be in (0, 1], got {self.coverage}")
        self.history = ArrivalHistory()

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Record the gap since this function's previous arrival."""
        self.history.observe(function, now_ms)

    def window_ms(self, function: str) -> float:
        """The coverage percentile of observed gaps, clamped."""
        if self.history.gap_count(function) < self.warmup_samples:
            return self.default_window_ms
        gap = self.history.gap_percentile_ms(function, self.coverage)
        return min(self.max_window_ms, max(self.min_window_ms, gap))


#: Keep-alive's accessor table: ``read(history, function)``.
KEEPALIVE_ACCESSORS: Dict[str, Callable[..., float]] = {
    "observed_gaps": lambda history, function: float(
        history.gap_count(function)),
    "gap_percentile_ms": lambda history, function, q: (
        history.gap_percentile_ms(function, q)),
}


class DslKeepAlivePolicy(KeepAlivePolicy):
    """A compiled keep-alive document over per-function arrival history."""

    source = SOURCE_DSL

    def __init__(self, compiled: CompiledPolicy) -> None:
        self.compiled = compiled
        self.name = compiled.name
        self.history = ArrivalHistory()
        self._window = bind_policy(compiled, KEEPALIVE_ACCESSORS)

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Record the gap since this function's previous arrival."""
        self.history.observe(function, now_ms)

    def window_ms(self, function: str) -> float:
        """The value of the leaf *function*'s signals select.  A NaN
        window raises: a pool cannot tell whether it has expired."""
        window = self._window(self.history, function)
        if math.isnan(window):
            raise ValidationError(
                f"keep-alive policy {self.name!r}: the window of "
                f"{function!r} is NaN")
        return window

    def __repr__(self) -> str:
        return f"DslKeepAlivePolicy({self.name!r})"
