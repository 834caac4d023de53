"""Host CPU: a finite pool of cores shared by all sandboxes.

The paper's testbed has 64 physical cores (§5.1) and each sandbox gets one
vCPU.  For single-invocation latency figures, CPU contention is irrelevant —
but for burst behaviour (hundreds of concurrent cold starts or snapshot
restores) the core pool is the bottleneck, so the concurrency extension
benches model it explicitly.

Usage inside a platform/worker process::

    claim = yield from host_cpu.acquire()
    try:
        ... run the work ...
    finally:
        host_cpu.release(claim)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.resources import Request, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class HostCpu:
    """The host's core pool, with queueing statistics.

    A claim is the :class:`~repro.sim.resources.Request` itself: the
    grant carries no value, so :meth:`acquire` returns the request it
    made and the caller hands that back to :meth:`release`.
    """

    def __init__(self, sim: "Simulation", cores: int = 64) -> None:
        if cores < 1:
            raise SimulationError(f"host needs >= 1 core, got {cores}")
        self.sim = sim
        self.cores = cores
        self._resource = Resource(sim, capacity=cores, name="host-cpu")
        self.total_claims = 0
        self.total_queue_wait_ms = 0.0
        self.peak_queue_length = 0

    @property
    def busy_cores(self) -> int:
        return self._resource.count

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def acquire(self):
        """Claim one core (a simulation generator returning the claim)."""
        requested_at = self.sim.now
        request = self._resource.request()
        self.peak_queue_length = max(self.peak_queue_length,
                                     self._resource.queue_length)
        yield request
        self.total_claims += 1
        self.total_queue_wait_ms += self.sim.now - requested_at
        return request

    def release(self, claim: Request) -> None:
        """Return a core claimed with :meth:`acquire`."""
        self._resource.release(claim)

    @property
    def mean_queue_wait_ms(self) -> float:
        if self.total_claims == 0:
            return 0.0
        return self.total_queue_wait_ms / self.total_claims
