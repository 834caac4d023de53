"""Per-host admission control: bounded FIFO queue + shed policy.

The queue sits *ahead of* the host capacity gate
(:meth:`repro.cluster.Host.assign`): a request that finds the host full
parks in FIFO order and is handed its slot by the releaser when capacity
frees up (no barging — the releaser calls ``assign`` on the waiter's
behalf before waking it, so a later arrival can never steal the slot).

Shed policy (both produce :class:`SheddedInvocation` results):

* ``queue-full`` — the queue already holds ``queue_capacity`` waiters on
  arrival; the request is rejected immediately.
* ``wait-budget`` — the request waited ``max_queue_wait_ms`` without
  being admitted; it withdraws from the queue and is rejected.

On a host crash (:meth:`repro.cluster.Host.mark_down`) every queued
waiter is flushed with :class:`~repro.errors.HostDownError`, which the
platform's chaos retry loop turns into a failover or a
``FailedInvocation`` — queued work is never silently lost and no queue
slot leaks.

The queue refers to its host weakly: the host owns it as
``host.admission``, so a strong link back would make a reference cycle
that keeps a finished platform, and its simulation, alive until the
cyclic GC runs.
"""

from __future__ import annotations

import weakref
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, TYPE_CHECKING

from repro.errors import HostDownError, InvocationSheddedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.span import Span


@dataclass(frozen=True)
class SheddedInvocation:
    """A request the admission controller rejected (never executed).

    The serving-layer analogue of ``FailedInvocation``: first-class, with
    its own (short) span tree so shed decisions show up in traces.
    """

    function: str
    platform: str
    submitted_ms: float
    shed_ms: float
    host_id: int
    reason: str          # "queue-full" | "wait-budget"
    queue_depth: int     # depth observed at the shed decision
    trace_id: str
    span: Optional["Span"] = field(default=None, repr=False, compare=False)

    @property
    def waited_ms(self) -> float:
        """How long the request was held before being shed."""
        return self.shed_ms - self.submitted_ms


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
        # -- SLO bookkeeping ------------------------------------------------
        self.admitted = 0          # requests that got a slot (fast or queued)
        self.queued = 0            # requests that had to wait
        self.sheds_full = 0        # rejected on arrival (queue-full)
        self.sheds_wait = 0        # rejected after waiting (wait-budget)
        self.flushed_down = 0      # waiters flushed by a host crash
        self.peak_depth = 0
        #: Queue wait of every admitted request.  An ``array('d')``: one
        #: append per invocation makes this an SLO ledger, and unboxed
        #: doubles keep a million-invocation replay's ledger at 8 MB
        #: instead of a list of boxed floats several times that size.
        self.wait_samples = array("d")

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
            self.admitted += 1
            self.wait_samples.append(0.0)
            return 0.0
            yield  # pragma: no cover - makes this function a generator
        if len(self._waiters) >= self.cfg.queue_capacity:
            self.sheds_full += 1
            raise InvocationSheddedError(
                host.host_id, "queue-full", len(self._waiters))
        waiter = _Waiter(event=self.sim.event(), function=function,
                         enqueued_at_ms=self.sim.now)
        self._waiters.append(waiter)
        self.queued += 1
        self.peak_depth = max(self.peak_depth, len(self._waiters))
        budget_ms = self.cfg.max_queue_wait_ms
        if budget_ms and budget_ms > 0:
            # Wait for the hand-off or the budget, whichever fires first;
            # a crash flush fails ``waiter.event`` and re-raises here.
            yield self.sim.any_of([waiter.event, self.sim.timeout(budget_ms)])
            if not waiter.event.triggered:
                # Budget expired while still queued: withdraw and shed.
                self._waiters.remove(waiter)
                self.sheds_wait += 1
                raise InvocationSheddedError(
                    host.host_id, "wait-budget", len(self._waiters))
        else:
            yield waiter.event
        wait_ms = self.sim.now - waiter.enqueued_at_ms
        self.admitted += 1
        self.wait_samples.append(wait_ms)
        return wait_ms

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
    def flush_down(self) -> int:
        """Host crashed: fail every queued waiter with ``HostDownError``.

        Returns the number of waiters flushed.  Each waiter's invoke
        process observes the failure and retries/fails over through the
        normal chaos path, so no queue slot is leaked.
        """
        flushed = 0
        while self._waiters:
            waiter = self._waiters.popleft()
            waiter.event.fail(HostDownError(self.host.host_id, "admission"))
            flushed += 1
        self.flushed_down += flushed
        return flushed
