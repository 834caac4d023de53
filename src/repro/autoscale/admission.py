"""Per-host admission control: bounded FIFO queue + shed policy.

The queue sits *ahead of* the host capacity gate
(:meth:`repro.cluster.Host.assign`): a request that finds the host full
parks in FIFO order and is handed its slot by the releaser when capacity
frees up (no barging — the releaser calls ``assign`` on the waiter's
behalf before waking it, so a later arrival can never steal the slot).

Shed policy (both raise :class:`~repro.errors.InvocationSheddedError`,
which the platform counts in its ledger's ``shed``):

* ``queue-full`` — the queue already holds ``queue_capacity`` waiters on
  arrival; the request is rejected immediately.
* ``wait-budget`` — the request waited ``max_queue_wait_ms`` without
  being admitted; it withdraws from the queue and is rejected.

On a host crash (:meth:`repro.cluster.Host.mark_down`) every queued
waiter is flushed with :class:`~repro.errors.HostDownError`, which the
platform's chaos retry loop turns into a failover or a failed
invocation — queued work is never silently lost and no queue slot
leaks.

The queue refers to its host weakly: the host owns it as
``host.admission``, so a strong link back would make a reference cycle
that keeps a finished platform, and its simulation, alive until the
cyclic GC runs.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.errors import HostDownError, InvocationSheddedError


@dataclass
class _Waiter:
    event: object
    function: str
    enqueued_at_ms: float


class AdmissionQueue:
    """Bounded FIFO admission queue for one :class:`~repro.cluster.Host`."""

    def __init__(self, sim, host, cfg) -> None:
        self.sim = sim
        self._host = weakref.ref(host)
        self.cfg = cfg
        self._waiters: Deque[_Waiter] = deque()

    @property
    def host(self):
        """The host this queue gates (held weakly: the host owns it)."""
        return self._host()

    @property
    def depth(self) -> int:
        """Current number of queued waiters."""
        return len(self._waiters)

    def waiting_functions(self) -> List[str]:
        """Function names currently queued, FIFO order (for the scaler)."""
        return [waiter.function for waiter in self._waiters]

    # -- invoke path --------------------------------------------------------
    def admit(self, function: str):
        """Process: wait for (and take) a capacity slot on the host.

        Returns the queue wait in ms.  On success the host slot is held by
        the caller, who must release it via ``cluster.finish(host)``.
        Raises :class:`InvocationSheddedError` when shed and
        :class:`HostDownError` when the host crashes while queued.
        """
        host = self.host
        if host.down:
            raise HostDownError(host.host_id, "admission")
        if not self._waiters and host.has_room:
            host.assign(function)
            return 0.0
            yield  # pragma: no cover - makes this function a generator
        if len(self._waiters) >= self.cfg.queue_capacity:
            raise InvocationSheddedError(
                host.host_id, "queue-full", len(self._waiters))
        waiter = _Waiter(event=self.sim.event(), function=function,
                         enqueued_at_ms=self.sim.now)
        self._waiters.append(waiter)
        budget_ms = self.cfg.max_queue_wait_ms
        if budget_ms and budget_ms > 0:
            # Wait for the hand-off or the budget, whichever fires first;
            # a crash flush fails ``waiter.event`` and re-raises here.
            yield self.sim.any_of([waiter.event, self.sim.timeout(budget_ms)])
            if not waiter.event.triggered:
                # Budget expired while still queued: withdraw and shed.
                self._waiters.remove(waiter)
                raise InvocationSheddedError(
                    host.host_id, "wait-budget", len(self._waiters))
        else:
            yield waiter.event
        return self.sim.now - waiter.enqueued_at_ms

    # -- slot hand-off ------------------------------------------------------
    def on_release(self) -> None:
        """Called after a slot frees: hand it to the next FIFO waiter.

        The releaser assigns the slot *on the waiter's behalf* before
        triggering its event, so no other request can barge in between
        the release and the waiter resuming.
        """
        host = self.host
        while self._waiters and not host.down and host.has_room:
            waiter = self._waiters.popleft()
            host.assign(waiter.function)
            waiter.event.succeed(waiter.function)

    # -- chaos --------------------------------------------------------------
    def flush_down(self) -> None:
        """Host crashed: fail every queued waiter with ``HostDownError``.

        Each waiter's invoke process observes the failure and retries or
        fails over through the normal chaos path, so no queue slot is
        leaked.
        """
        while self._waiters:
            waiter = self._waiters.popleft()
            waiter.event.fail(HostDownError(self.host.host_id, "admission"))
