"""First-class hosts and the cluster the control plane schedules over.

Figure 1's controller relays each request "to one of the backend servers".
A :class:`Host` is one such server: its own physical memory, network
bridge, optional core pool, warm pool, and snapshot store.  A
:class:`Cluster` is the controller's set of hosts plus the placement
policy that picks one per invocation (:mod:`repro.platforms.scheduler`).

The paper's evaluation runs on one host, so ``Cluster(n_hosts=1)`` is the
default everywhere and reproduces every figure unchanged; multi-host
clusters make placement a real decision — warm sandboxes and snapshot
images live *on a specific host*, and the ``snapshot-locality`` policy
exists to keep requests where that state is hot (REAP-style snapshots are
only cheap when the image is already local).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.config import CalibratedParameters
from repro.errors import PlatformError
from repro.host.cpu import HostCpu
from repro.mem.host_memory import HostMemory
from repro.net.bridge import HostBridge
from repro.platforms.pooling import WarmPool
from repro.platforms.scheduler import POLICY_HASH, home_index
from repro.storage.disk import BlockDevice
from repro.storage.snapshot_store import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class Host:
    """One backend server: memory, network, cores, warm pool, snapshots.

    ``capacity`` bounds concurrent invocations on the host (``None`` means
    unbounded — the single-host default, where the core pool is the real
    limiter).  The ``node_id``/``active``/``has_room`` surface is the
    node interface of :func:`repro.platforms.scheduler.select_node`.
    """

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 host_id: int = 0, capacity: Optional[int] = None,
                 cores: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise PlatformError(
                f"host{host_id} capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.params = params
        self.host_id = host_id
        self.memory = HostMemory(params.host)
        self.bridge = HostBridge()
        self.cpu: Optional[HostCpu] = (
            HostCpu(sim, cores=cores) if cores is not None else None)
        self.pool = WarmPool()
        self.store = SnapshotStore(
            BlockDevice(params.host.disk_gb * 1024.0,
                        name=f"host{host_id}-ssd"),
            capacity_images=params.snapshot.store_capacity_images)
        self.capacity = capacity
        self.active = 0
        self.assigned_total = 0
        self.per_function: Dict[str, int] = {}
        # Chaos state (repro.chaos): a down host is skipped by every
        # placement policy via has_room; degradation adds latency without
        # taking the host out of rotation.
        self.down = False
        self.down_since_ms: Optional[float] = None
        self.degraded_until_ms = float("-inf")
        self.degraded_penalty_ms = 0.0
        # Serving layer (repro.autoscale): the bounded admission queue
        # ahead of the capacity gate.  Created only when
        # params.autoscale.enabled — None keeps the legacy invoke path
        # byte-identical.
        self.admission = None
        if params.autoscale.enabled:
            from repro.autoscale.admission import AdmissionQueue
            self.admission = AdmissionQueue(sim, self, params.autoscale)

    # -- scheduler node interface ----------------------------------------------
    @property
    def node_id(self) -> int:
        return self.host_id

    @property
    def has_room(self) -> bool:
        if self.down:
            return False
        return self.capacity is None or self.active < self.capacity

    # -- chaos state (repro.chaos drives these) --------------------------------
    def mark_down(self, now_ms: float) -> None:
        """Crash the host: placement skips it until :meth:`mark_up`.

        Queued admission waiters are flushed with ``HostDownError`` so
        their invoke processes retry/fail over — no queue slot leaks.
        """
        self.down = True
        self.down_since_ms = now_ms
        if self.admission is not None:
            self.admission.flush_down()

    def mark_up(self) -> None:
        """Recover a crashed host (its pool/store were lost at crash)."""
        self.down = False
        self.down_since_ms = None

    def degrade(self, until_ms: float, penalty_ms: float) -> None:
        """Slow the host down: invocations placed here before *until_ms*
        pay an extra *penalty_ms* of dispatch latency."""
        self.degraded_until_ms = until_ms
        self.degraded_penalty_ms = penalty_ms

    def degradation_penalty_ms(self, now_ms: float) -> float:
        """The extra dispatch latency this host charges at *now_ms*."""
        if now_ms < self.degraded_until_ms:
            return self.degraded_penalty_ms
        return 0.0

    def assign(self, function: str) -> None:
        """Count one in-flight invocation onto this host; errors when full."""
        if not self.has_room:
            raise PlatformError(
                f"host{self.host_id} over capacity "
                f"({self.active}/{self.capacity})")
        self.active += 1
        self.assigned_total += 1
        self.per_function[function] = self.per_function.get(function, 0) + 1

    def release(self) -> None:
        """Return a slot after the invocation finished."""
        if self.active <= 0:
            raise PlatformError(f"host{self.host_id} released below zero")
        self.active -= 1

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (f"<Host {self.host_id} active={self.active}/{cap} "
                f"mem={self.memory.used_mb:.0f}MiB>")


class Cluster:
    """The controller's hosts plus the placement policy over them."""

    def __init__(self, sim: "Simulation", params: CalibratedParameters,
                 n_hosts: int = 1, policy=POLICY_HASH,
                 capacity_per_host: Optional[int] = None,
                 cores_per_host: Optional[int] = None) -> None:
        if n_hosts < 1:
            raise PlatformError(f"need >= 1 host, got {n_hosts}")
        # *policy* may be a registered name, a DSL document, or a ready
        # PlacementPolicy; unknown names fail here, at config-parse time,
        # with the list of registered names (ValidationError).
        from repro.policy import resolve_placement
        self.placement = resolve_placement(policy)
        self.sim = sim
        self.params = params
        self.policy = self.placement.name
        self.policy_source = self.placement.source
        self.hosts: List[Host] = [
            Host(sim, params, host_id=index, capacity=capacity_per_host,
                 cores=cores_per_host)
            for index in range(n_hosts)]
        self._rr_next = 0
        self.placements = 0

    # -- lookup -----------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def host(self, host_id: int) -> Host:
        """The host with *host_id*; errors on unknown ids."""
        if not 0 <= host_id < len(self.hosts):
            raise PlatformError(f"no host {host_id} in a "
                                f"{len(self.hosts)}-host cluster")
        return self.hosts[host_id]

    def home_host(self, function: str) -> Host:
        """The function's home host (stable hash — install seeds it)."""
        return self.hosts[home_index(function, len(self.hosts))]

    # -- placement --------------------------------------------------------------
    def place(self, function: str,
              locality: Optional[Callable[[Host], bool]] = None) -> Host:
        """Choose (and assign to) a host for one invocation.

        *locality* marks hosts where the function's state is already
        resident (warm sandbox, snapshot image); only the
        ``snapshot-locality`` policy consults it.  The caller must pair
        every ``place`` with a :meth:`finish`.
        """
        host, self._rr_next = self.placement.select(
            self.hosts, function, self._rr_next, locality)
        host.assign(function)
        self.placements += 1
        return host

    def place_queued(self, function: str,
                     locality: Optional[Callable[[Host], bool]] = None
                     ) -> Host:
        """Choose a host for *queued* admission — without assigning.

        The serving-layer variant of :meth:`place`: when some host has
        room the normal policy picks it; when every live host is full the
        request is not bounced (``NoHostAvailableError``) but directed at
        the live host with the shortest admission queue, where it will
        wait or be shed.  The admission queue performs the ``assign``.
        """
        from repro.errors import NoHostAvailableError
        try:
            host, self._rr_next = self.placement.select(
                self.hosts, function, self._rr_next, locality)
        except NoHostAvailableError:
            live = [h for h in self.hosts if not h.down]
            if not live:
                raise
            host = min(live, key=lambda h: (
                h.admission.depth if h.admission is not None else 0,
                h.host_id))
        self.placements += 1
        return host

    def finish(self, host: Host) -> None:
        """Release the slot claimed by :meth:`place` (or by admission).

        With a serving layer attached, a freed slot is handed to the
        host's next queued waiter before anyone else can take it.
        """
        host.release()
        if host.admission is not None:
            host.admission.on_release()

    # -- stats ------------------------------------------------------------------
    def total_active(self) -> int:
        """Invocations currently in flight across all hosts."""
        return sum(host.active for host in self.hosts)

    def load_spread(self) -> int:
        """Max-min assigned_total across hosts (fairness measure)."""
        totals = [host.assigned_total for host in self.hosts]
        return max(totals) - min(totals)

    def __repr__(self) -> str:
        return (f"<Cluster {len(self.hosts)} hosts policy={self.policy} "
                f"active={self.total_active()}>")
