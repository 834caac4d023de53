"""Warm-pool management shared by the baseline platforms.

The "current practice" of §2.2: after an invocation, keep the sandbox around
for a keep-alive window hoping another request arrives (a *warm start*); tear
it down afterwards because idle sandboxes waste memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import PlatformError
from repro.mem.host_memory import pages_to_mb
from repro.sandbox.worker import Worker


@dataclass
class WarmEntry:
    """One idle sandbox waiting in the warm pool."""

    worker: Worker
    expires_at_ms: float
    paused: bool      # FC/gVisor pause their sandboxes; OW keeps them live


class WarmPool:
    """Per-function pools of idle sandboxes with lazy expiry."""

    def __init__(self) -> None:
        self._pools: Dict[str, List[WarmEntry]] = {}
        self.expired_entries: List[WarmEntry] = []

    def add(self, function: str, entry: WarmEntry) -> None:
        """Park an idle sandbox in the function's pool.  A NaN expiry is
        refused: such an entry would never read as live or expired."""
        if math.isnan(entry.expires_at_ms):
            raise PlatformError(
                f"warm entry for {function!r} has a NaN expiry")
        self._pools.setdefault(function, []).append(entry)

    def take(self, function: str, now_ms: float) -> Optional[WarmEntry]:
        """Pop the freshest live entry, expiring stale ones as we go."""
        pool = self._pools.get(function, [])
        self._expire(pool, now_ms)
        if not pool:
            return None
        return pool.pop()

    def size(self, function: str, now_ms: float) -> int:
        """Live entries for *function* (expiring stale ones)."""
        pool = self._pools.get(function, [])
        self._expire(pool, now_ms)
        return len(pool)

    def drain_expired(self) -> List[WarmEntry]:
        """Entries that timed out since the last drain (caller tears down)."""
        expired, self.expired_entries = self.expired_entries, []
        return expired

    def expire_all(self, now_ms: float) -> None:
        """Sweep every pool for timed-out entries (periodic reaper)."""
        for pool in self._pools.values():
            self._expire(pool, now_ms)

    def drain_all(self) -> List[WarmEntry]:
        """Pop *every* entry — live, expired, all functions — and return
        them (host crash: the caller tears the sandboxes down).  Also
        flushes the pending-expired list so nothing is torn down twice."""
        drained = [entry for pool in self._pools.values() for entry in pool]
        drained.extend(self.expired_entries)
        self._pools.clear()
        self.expired_entries = []
        return drained

    def live_entries(self, now_ms: float) -> List[WarmEntry]:
        """Every still-live entry across all pools."""
        self.expire_all(now_ms)
        return [entry for pool in self._pools.values() for entry in pool]

    def total_pss_mb(self, now_ms: float) -> float:
        """Σ PSS of every live entry — the pool's memory footprint, the
        cost side of the warm-start trade the autoscaler navigates.
        Summed in pages, in pool order, then converted once."""
        return pages_to_mb(sum(entry.worker.sandbox.space.pss_pages()
                               for entry in self.live_entries(now_ms)))

    def _expire(self, pool: List[WarmEntry], now_ms: float) -> None:
        """Move *pool*'s timed-out entries, in pool order, to the expired
        list; the pool is rebuilt only when one has timed out."""
        for entry in pool:
            if not entry.expires_at_ms > now_ms:
                break
        else:
            return
        live = []
        expired = self.expired_entries
        for entry in pool:
            if entry.expires_at_ms > now_ms:
                live.append(entry)
            else:
                expired.append(entry)
        pool[:] = live


def require_warm(entry: Optional[WarmEntry], function: str,
                 platform: str) -> WarmEntry:
    """Raise a clear error when a warm start was forced but none exists."""
    if entry is None:
        raise PlatformError(
            f"{platform}: warm start of {function!r} requested but the warm "
            "pool is empty — call provision_warm() first")
    return entry
