"""Seeded, schedulable fault plans for the chaos engine.

A :class:`ChaosPlan` is a sorted list of :class:`ChaosEvent`\\ s in
simulation time.  Plans are plain data: the same plan applied to the same
seeded experiment produces byte-identical results, which is what makes the
chaos suite a *regression* suite rather than a flake generator.

Fault taxonomy (docs/chaos.md):

* ``host-crash``          — the host dies: placement skips it, its warm
                            pool is torn down, its snapshot store is lost;
* ``host-recover``        — the crashed host rejoins empty;
* ``host-degraded``       — the host stays up but every invocation placed
                            on it pays an extra dispatch penalty for a
                            window;
* ``bus-partition``       — the controller cannot publish to the message
                            bus for a window (every dispatch fails fast);
* ``snapshot-store-loss`` — one host's snapshot store is wiped (disk
                            loss) while the host stays up;
* ``slow-restore``        — every snapshot restore is slowed by a factor
                            for a window (page-cache thrash, noisy
                            neighbour);
* ``restore-corruption``  — the next ``count`` restores of function
                            ``key``'s snapshot fail their integrity check
                            (torn write, bit rot);
* ``param-fetch-timeout`` — the next ``count`` parameter fetches of
                            function ``key`` time out (broker hiccup);
* ``db-timeout``          — the next ``count`` requests to database
                            ``key`` time out.

The last three are *budgets*: applying one arms ``count`` failures of one
operation, and the operation fires them whenever it next runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ChaosError
from repro.sim.rng import RngStreams

KIND_HOST_CRASH = "host-crash"
KIND_HOST_RECOVER = "host-recover"
KIND_HOST_DEGRADED = "host-degraded"
KIND_BUS_PARTITION = "bus-partition"
KIND_STORE_LOSS = "snapshot-store-loss"
KIND_SLOW_RESTORE = "slow-restore"
KIND_RESTORE_CORRUPTION = "restore-corruption"
KIND_PARAM_FETCH_TIMEOUT = "param-fetch-timeout"
KIND_DB_TIMEOUT = "db-timeout"

#: Kinds that arm ``count`` operation failures for ``key``.
BUDGET_KINDS = (KIND_RESTORE_CORRUPTION, KIND_PARAM_FETCH_TIMEOUT,
                KIND_DB_TIMEOUT)

KINDS = (KIND_HOST_CRASH, KIND_HOST_RECOVER, KIND_HOST_DEGRADED,
         KIND_BUS_PARTITION, KIND_STORE_LOSS, KIND_SLOW_RESTORE) \
    + BUDGET_KINDS

#: Kinds that target one host (require ``host_id``).
_HOST_KINDS = (KIND_HOST_CRASH, KIND_HOST_RECOVER, KIND_HOST_DEGRADED,
               KIND_STORE_LOSS)
#: Kinds that open a time window (require ``duration_ms > 0``).
_WINDOW_KINDS = (KIND_HOST_DEGRADED, KIND_BUS_PARTITION, KIND_SLOW_RESTORE)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    ``duration_ms`` opens a window for the window kinds; ``penalty_ms``
    is the per-invocation dispatch penalty of ``host-degraded``;
    ``factor`` is the restore multiplier of ``slow-restore``; ``key``
    (a function name, or a database name for ``db-timeout``) and
    ``count`` are the target and size of a budget kind.
    """

    at_ms: float
    kind: str
    host_id: Optional[int] = None
    duration_ms: float = 0.0
    penalty_ms: float = 0.0
    factor: float = 1.0
    key: Optional[str] = None
    count: int = 1

    def validate(self) -> None:
        """Reject malformed events (unknown kind, missing target, ...)."""
        if self.kind not in KINDS:
            raise ChaosError(f"unknown chaos event kind {self.kind!r}")
        if self.at_ms < 0:
            raise ChaosError(f"{self.kind} scheduled at {self.at_ms}ms < 0")
        if self.kind in _HOST_KINDS and self.host_id is None:
            raise ChaosError(f"{self.kind} needs a host_id")
        if self.kind in _WINDOW_KINDS and self.duration_ms <= 0:
            raise ChaosError(f"{self.kind} needs duration_ms > 0")
        if self.kind == KIND_HOST_DEGRADED and self.penalty_ms <= 0:
            raise ChaosError("host-degraded needs penalty_ms > 0")
        if self.kind == KIND_SLOW_RESTORE and self.factor < 1.0:
            raise ChaosError(
                f"slow-restore factor must be >= 1, got {self.factor}")
        if self.kind in BUDGET_KINDS:
            if not self.key:
                raise ChaosError(f"{self.kind} needs a key")
            if self.count < 1:
                raise ChaosError(
                    f"{self.kind} count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ChaosPlan:
    """A validated, time-sorted sequence of fault events."""

    events: Tuple[ChaosEvent, ...]

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        for event in events:
            event.validate()
        object.__setattr__(
            self, "events",
            tuple(sorted(events, key=lambda event: event.at_ms)))

    def __len__(self) -> int:
        return len(self.events)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def random(cls, seed: int, n_hosts: int, duration_ms: float,
               n_events: int = 5) -> "ChaosPlan":
        """A seeded random plan (property tests): same seed, same plan."""
        if n_hosts < 1:
            raise ChaosError(f"need >= 1 host, got {n_hosts}")
        if duration_ms <= 0:
            raise ChaosError(f"need duration_ms > 0, got {duration_ms}")
        rng = RngStreams(seed).stream("chaos-plan")
        events = []
        for _ in range(n_events):
            at_ms = rng.uniform(0.05, 0.85) * duration_ms
            kind = rng.choice((KIND_HOST_CRASH, KIND_HOST_DEGRADED,
                               KIND_BUS_PARTITION, KIND_STORE_LOSS,
                               KIND_SLOW_RESTORE))
            if kind == KIND_HOST_CRASH:
                host_id = rng.randrange(n_hosts)
                events.append(
                    ChaosEvent(at_ms, KIND_HOST_CRASH, host_id=host_id))
                if rng.random() < 0.5:
                    recover_at = at_ms + rng.uniform(0.02, 0.1) * duration_ms
                    events.append(ChaosEvent(recover_at, KIND_HOST_RECOVER,
                                             host_id=host_id))
            elif kind == KIND_HOST_DEGRADED:
                events.append(ChaosEvent(
                    at_ms, kind, host_id=rng.randrange(n_hosts),
                    duration_ms=rng.uniform(0.02, 0.1) * duration_ms,
                    penalty_ms=rng.uniform(5.0, 50.0)))
            elif kind == KIND_BUS_PARTITION:
                events.append(ChaosEvent(
                    at_ms, kind,
                    duration_ms=rng.uniform(0.005, 0.02) * duration_ms))
            elif kind == KIND_STORE_LOSS:
                events.append(ChaosEvent(at_ms, kind,
                                         host_id=rng.randrange(n_hosts)))
            else:  # slow-restore
                events.append(ChaosEvent(
                    at_ms, kind,
                    duration_ms=rng.uniform(0.02, 0.1) * duration_ms,
                    factor=rng.uniform(1.5, 4.0)))
        return cls(events)
