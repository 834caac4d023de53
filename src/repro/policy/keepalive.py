"""The keep-alive seam: arrival-history signals → idle-window decision.

:class:`DslKeepAlivePolicy` adapts a compiled ``keepalive`` document to
the existing :class:`~repro.platforms.keepalive.KeepAlivePolicy`
interface.  It keeps the same per-function inter-arrival ledger the
built-in :class:`~repro.platforms.keepalive.HybridHistogramKeepAlive`
keeps (a gap is recorded only when an arrival lands strictly after the
previous one, in an ``array('d')`` per function), and exposes it to the
tree as the ``observed_gaps`` and ``gap_percentile_ms(q)`` signals.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict

from repro.platforms.keepalive import KeepAlivePolicy
from repro.policy.dsl import (
    CompiledPolicy,
    ConditionNode,
    SignalRef,
    ValueLeaf,
)

SOURCE_BUILTIN = "builtin"
SOURCE_DSL = "dsl"


class DslKeepAlivePolicy(KeepAlivePolicy):
    """A compiled keep-alive document over per-function arrival history."""

    source = SOURCE_DSL

    def __init__(self, compiled: CompiledPolicy) -> None:
        if compiled.domain != "keepalive":
            raise ValueError(
                f"policy {compiled.name!r} is a {compiled.domain} "
                "document, not keepalive")
        self.compiled = compiled
        self.name = compiled.name
        self._last_arrival: Dict[str, float] = {}
        self._gaps: Dict[str, array] = {}

    def observe_arrival(self, function: str, now_ms: float) -> None:
        """Record the gap since this function's previous arrival
        (identically to the built-in histogram policy)."""
        last = self._last_arrival.get(function)
        if last is not None and now_ms > last:
            gaps = self._gaps.get(function)
            if gaps is None:
                gaps = self._gaps[function] = array("d")
            gaps.append(now_ms - last)
        self._last_arrival[function] = now_ms

    def _resolver(self, function: str):
        gaps = self._gaps.get(function, [])

        def resolve(ref: SignalRef) -> float:
            if ref.name == "observed_gaps":
                return float(len(gaps))
            # gap_percentile_ms — the only other keepalive signal.
            if not gaps:
                return math.inf
            ordered = sorted(gaps)
            index = min(len(ordered) - 1, int(ref.arg("q") * len(ordered)))
            return float(ordered[index])

        return resolve

    def window_ms(self, function: str) -> float:
        """Walk the tree to a scalar leaf under *function*'s signals."""
        resolve = self._resolver(function)
        node = self.compiled.tree
        while isinstance(node, ConditionNode):
            node = node.then if node.condition.holds(resolve) \
                else node.otherwise
        assert isinstance(node, ValueLeaf)
        return node.value(resolve)

    def __repr__(self) -> str:
        return f"DslKeepAlivePolicy({self.name!r})"
