"""Exception hierarchy for the Fireworks reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without catching programming errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    def __reduce__(self):
        # Rebuilt from ``args`` and the instance dict, not through the
        # subclass's ``__init__`` (whose signature varies), so every
        # error crosses a process pool as itself.
        return (_rebuild, (type(self), self.args), self.__dict__)


def _rebuild(cls: type, args: tuple) -> ReproError:
    """*cls* with *args*, its ``__init__`` skipped (see
    :meth:`ReproError.__reduce__`)."""
    return cls.__new__(cls, *args)


class SimulationError(ReproError):
    """A discrete-event simulation invariant was violated."""


class UndrainedSimulationError(SimulationError):
    """A drained simulation's pending work does not end: events were
    still queued a full drain horizon past the drain's start (a process
    that never goes quiet).  *pending* names the earliest entry; an
    engine shard's error also names its *experiment* and *shard*."""

    def __init__(self, pending: str, horizon_ms: float,
                 experiment: Optional[str] = None,
                 shard: Optional[str] = None) -> None:
        where = (f"experiment {experiment!r} shard {shard!r}: "
                 if experiment is not None else "")
        super().__init__(
            f"{where}a simulation still had pending events {horizon_ms:g} "
            f"ms into its drain; the earliest is {pending}")
        self.pending = pending
        self.horizon_ms = horizon_ms
        self.experiment = experiment
        self.shard = shard


class ValidationError(ReproError):
    """A caller passed an argument outside the accepted domain (unknown
    policy name, non-positive size, ...) — a usage error, not a runtime
    failure of the modeled system."""


class StateError(ReproError):
    """An operation was invoked in a state where it is meaningless (e.g.
    recording a working set before any invocation ran)."""


class MemoryError_(ReproError):
    """Guest/host memory model misuse (bad address, double free, ...)."""


class OutOfMemoryError(MemoryError_):
    """Host physical memory exhausted (beyond the swap threshold)."""


class StorageError(ReproError):
    """Block device / filesystem / snapshot store failure."""


class SnapshotNotFoundError(StorageError):
    """The requested snapshot image is not in the snapshot store."""


class NetworkError(ReproError):
    """Network namespace / NAT / tap device misconfiguration."""


class AddressConflictError(NetworkError):
    """Two endpoints in the same namespace claimed the same address."""


class RuntimeModelError(ReproError):
    """Language-runtime model misuse (unknown op, bad JIT state, ...)."""


class SandboxError(ReproError):
    """Sandbox lifecycle violation (e.g. resuming a sandbox never paused)."""


class PlatformError(ReproError):
    """Serverless control-plane failure (unknown function, bad request)."""


class FunctionNotFoundError(PlatformError):
    """Invocation of a function that was never installed/registered."""


class ChaosError(ReproError):
    """An injected infrastructure failure (chaos engine, repro.chaos)."""


class RetryableChaosError(ChaosError):
    """A chaos failure the invoke path may retry (the fault can heal or a
    different host can serve the request)."""


class HostDownError(RetryableChaosError):
    """The chosen host crashed before the invocation could complete on it."""

    def __init__(self, host_id: int, stage: str) -> None:
        super().__init__(f"host{host_id} is down (observed at {stage})")
        self.host_id = host_id
        self.stage = stage


class BusPartitionedError(RetryableChaosError):
    """The controller cannot reach the message bus (network partition)."""


class NoHostAvailableError(PlatformError, RetryableChaosError):
    """Placement found no live host with room.

    A :class:`PlatformError` subclass so pre-chaos callers that expect
    "all invokers at capacity" to be a platform error keep working, and a
    :class:`RetryableChaosError` because a crashed host may recover.
    """


class InvocationSheddedError(PlatformError):
    """The admission controller rejected the request (HTTP-429 analogue).

    Raised when the per-host admission queue is full on arrival
    (``reason == "queue-full"``) or the request exceeded its wait budget
    while queued (``reason == "wait-budget"``).  Deliberately *not*
    retryable: shedding is a deliberate overload-protection decision, and
    retrying against the same overloaded cluster would defeat it.
    """

    def __init__(self, host_id: int, reason: str, queue_depth: int) -> None:
        super().__init__(
            f"host{host_id} shed the request ({reason}, "
            f"queue depth {queue_depth})")
        self.host_id = host_id
        self.reason = reason
        self.queue_depth = queue_depth


class ExecutionLostError(ChaosError):
    """The host died after the function executed but before the response
    was accounted.  Deliberately *not* retryable: re-running would execute
    the function twice (at-most-once billing)."""

    def __init__(self, host_id: int) -> None:
        super().__init__(
            f"host{host_id} crashed after execution; result lost")
        self.host_id = host_id


class InjectedFault(ChaosError):
    """A budgeted operation fault from a chaos plan (a parameter-fetch or
    database timeout), carrying its kind and key.  Deliberately *not*
    retryable by the invoke loop: the component that failed owns the
    recovery (refetch, retry the request, regenerate the snapshot)."""

    def __init__(self, kind: str, key: str) -> None:
        super().__init__(f"injected {kind} fault for {key!r}")
        self.kind = kind
        self.key = key


class SnapshotCorruptedError(InjectedFault):
    """The snapshot image failed its integrity check on restore."""


class InvocationFailedError(ChaosError):
    """An invocation exhausted its retry budget (or hit an unretryable
    fault) under an attached chaos controller.  *trace_id* names the
    invocation's trace; each attempt's host is on its ``placement``
    span."""

    def __init__(self, function: str, attempts: int, reason: str,
                 trace_id: str) -> None:
        super().__init__(
            f"invocation of {function!r} failed after {attempts} "
            f"attempt(s): {reason}")
        self.function = function
        self.attempts = attempts
        self.reason = reason
        self.trace_id = trace_id


class AnnotationError(ReproError):
    """The code annotator could not transform the user's source."""


class BusError(ReproError):
    """Message bus misuse (unknown topic, empty consume, ...)."""


class DatabaseError(ReproError):
    """CouchDB-substrate failure (missing document, bad revision, ...)."""


class DocumentConflictError(DatabaseError):
    """A document update supplied a stale revision."""


class TraceError(ReproError):
    """Span lifecycle misuse (closing a span that is not the innermost)."""


class TraceInvariantError(TraceError):
    """A span tree violates a tracing invariant (nesting, coverage,
    span-vs-record agreement)."""
