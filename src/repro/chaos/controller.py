"""The chaos controller: applies a :class:`ChaosPlan` to a live platform.

:class:`HostFailureController` binds to a platform, walks the plan's
events on the simulation clock, and mutates cluster state exactly the way
a machine failure would: a crashed host stops advertising room (every
placement policy fails over), its warm pool is torn down, and its
snapshot-store replicas die with its disk.  The platform's retry loop
(:meth:`repro.platforms.base.ServerlessPlatform.invoke`) sees the fallout
as :class:`~repro.errors.RetryableChaosError`\\ s and re-dispatches.

Budget events arm operation faults instead: the restorer, the parameter
passer and the guest's database handlers call :meth:`check` before the
operation completes, and an armed budget fails it with a typed
:class:`~repro.errors.InjectedFault` that the component's own recovery
path handles.  :attr:`HostFailureController.fired` is the run's one
fired-fault ledger.

Everything is deterministic: the plan is data, the controller draws no
randomness of its own, and the retry path's jitter comes from the seeded
``chaos-retry`` stream — two identically-seeded runs replay the same
failures, the same backoffs, and the same traces byte for byte.

The controller refers to its platform weakly: the platform reaches the
controller as ``platform.chaos`` (and through its restorers and
parameter passer), so a strong link back would make a reference cycle
that keeps a finished platform alive until the cyclic GC runs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.chaos.plan import (BUDGET_KINDS, KIND_BUS_PARTITION,
                              KIND_HOST_CRASH, KIND_HOST_DEGRADED,
                              KIND_HOST_RECOVER, KIND_RESTORE_CORRUPTION,
                              KIND_SLOW_RESTORE, KIND_STORE_LOSS, ChaosEvent,
                              ChaosPlan)
from repro.errors import ChaosError, InjectedFault, SnapshotCorruptedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host
    from repro.platforms.base import ServerlessPlatform


@dataclass(frozen=True)
class ChaosEventRecord:
    """One applied fault, as the controller's log remembers it."""

    at_ms: float
    kind: str
    host_id: Optional[int]
    detail: str


class HostFailureController:
    """Drives host failures (and the other fault kinds) from a plan.

    *failover* gates the platform-side recovery machinery that goes
    beyond rerouting: with it off, requests are still retried on live
    hosts, but a snapshot whose only replica died is simply gone (the
    invocation fails); with it on, Fireworks regenerates the snapshot on
    the failover host from the installed image's metadata.
    """

    def __init__(self, platform: "ServerlessPlatform", plan: ChaosPlan,
                 failover: bool = True) -> None:
        if platform.chaos is not None:
            raise ChaosError(
                f"{platform.name} already has a chaos controller attached")
        self._platform = weakref.ref(platform)
        self.plan = plan
        self.failover = failover
        self.sim = platform.sim
        self.log: List[ChaosEventRecord] = []
        self._partitions: List[Tuple[float, float]] = []
        self._slow_windows: List[Tuple[float, float, float]] = []
        #: (kind, key) -> operation faults armed and not yet fired.
        self._budgets: Dict[Tuple[str, str], int] = {}
        #: (kind, key) -> operation faults fired so far.
        self.fired: Dict[Tuple[str, str], int] = {}
        platform.chaos = self
        platform.on_chaos_attached()
        self.process = self.sim.process(self._run(), name="chaos-controller")

    @property
    def platform(self) -> "ServerlessPlatform":
        """The platform under test (held weakly: it owns the controller)."""
        return self._platform()

    # -- plan execution --------------------------------------------------------
    def _run(self):
        for event in self.plan.events:
            if event.at_ms > self.sim.now:
                yield self.sim.timeout(event.at_ms - self.sim.now)
            self._apply(event)

    def _apply(self, event: ChaosEvent) -> None:
        now = self.sim.now
        if event.kind == KIND_HOST_CRASH:
            host = self.platform.cluster.host(event.host_id)
            if host.down:
                self._note(event, "already down (no-op)")
                return
            # Serving layer: mark_down flushes queued admission waiters
            # with HostDownError (they retry/fail over); count them here
            # so the log shows what the crash displaced.
            queued = (host.admission.depth
                      if host.admission is not None else 0)
            host.mark_down()
            drained = host.pool.drain_all()
            for entry in drained:
                # The sandbox dies with the machine; its backend's
                # teardown (network, parameter topic) runs detached.
                self.platform.discard_worker(entry.worker, host,
                                             label="chaos-teardown")
            lost = host.store.clear()
            self.platform.on_host_crash(host)
            self._note(event, f"drained {len(drained)} warm worker(s), "
                              f"lost {lost} snapshot(s), "
                              f"flushed {queued} queued request(s)")
        elif event.kind == KIND_HOST_RECOVER:
            host = self.platform.cluster.host(event.host_id)
            if not host.down:
                self._note(event, "already up (no-op)")
                return
            host.mark_up()
            self._note(event, "rejoined empty")
        elif event.kind == KIND_HOST_DEGRADED:
            host = self.platform.cluster.host(event.host_id)
            host.degrade(now + event.duration_ms, event.penalty_ms)
            self._note(event, f"+{event.penalty_ms:g}ms dispatch for "
                              f"{event.duration_ms:g}ms")
        elif event.kind == KIND_BUS_PARTITION:
            self._partitions.append((now, now + event.duration_ms))
            self._note(event, f"bus unreachable for {event.duration_ms:g}ms")
        elif event.kind == KIND_STORE_LOSS:
            host = self.platform.cluster.host(event.host_id)
            lost = host.store.clear()
            self._note(event, f"lost {lost} snapshot(s), host stays up")
        elif event.kind == KIND_SLOW_RESTORE:
            self._slow_windows.append(
                (now, now + event.duration_ms, event.factor))
            self._note(event, f"restores x{event.factor:g} for "
                              f"{event.duration_ms:g}ms")
        elif event.kind in BUDGET_KINDS:
            slot = (event.kind, event.key)
            self._budgets[slot] = self._budgets.get(slot, 0) + event.count
            self._note(event, f"armed {event.count} for {event.key!r}")
        else:  # pragma: no cover - ChaosPlan validates kinds
            raise ChaosError(f"unknown chaos event kind {event.kind!r}")

    def _note(self, event: ChaosEvent, detail: str) -> None:
        self.log.append(ChaosEventRecord(
            at_ms=self.sim.now, kind=event.kind, host_id=event.host_id,
            detail=detail))

    # -- state queries (the platform's invoke path asks these) -----------------
    def check(self, kind: str, key: str) -> None:
        """Fire one armed *kind* fault for *key*, if any: consume it,
        count it in :attr:`fired` and raise the typed error."""
        slot = (kind, key)
        remaining = self._budgets.get(slot, 0)
        if remaining <= 0:
            return
        self._budgets[slot] = remaining - 1
        self.fired[slot] = self.fired.get(slot, 0) + 1
        if kind == KIND_RESTORE_CORRUPTION:
            raise SnapshotCorruptedError(kind, key)
        raise InjectedFault(kind, key)

    def bus_partitioned(self, now_ms: float) -> bool:
        """Whether the controller-to-bus link is partitioned at *now_ms*."""
        return any(start <= now_ms < end
                   for start, end in self._partitions)

    def restore_slowdown(self, now_ms: float) -> float:
        """The restore multiplier in force at *now_ms* (1.0 = none)."""
        factor = 1.0
        for start, end, window_factor in self._slow_windows:
            if start <= now_ms < end:
                factor = max(factor, window_factor)
        return factor

    def hosts_down(self) -> Tuple[int, ...]:
        """Host ids currently marked down."""
        return tuple(host.host_id for host in self.platform.cluster.hosts
                     if host.down)
