"""Processes: generator-based coroutines running on the simulation kernel.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.sim.events.Event`; the process resumes when that event fires,
receiving the event's value (or its exception, for failed events).  A process
is itself an event that succeeds with the generator's return value, so
processes can wait on each other (``yield other_process``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("_generator", "_waiting_on", "trace_stack")

    def __init__(self, sim: "Simulation",
                 generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Span-context stack (repro.trace): lazily created by the tracer so
        # untraced processes pay one attribute slot and nothing else.
        self.trace_stack = None
        # Bootstrap: run the first step as soon as the kernel is able to.
        # A pooled kernel wakeup — nothing can wait on the bootstrap, so a
        # full Event (name string, callbacks list) would be pure overhead.
        sim._schedule_wakeup(self._resume, True, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self._waiting_on is not None:
            waited = self._waiting_on
            if waited.callbacks is not None and self._resume in waited.callbacks:
                waited.callbacks.remove(self._resume)
                if not waited.callbacks and not waited.triggered and \
                        waited.on_abandoned is not None:
                    waited.on_abandoned()
            self._waiting_on = None
        self.sim._schedule_wakeup(
            self._resume, False, Interrupt(cause), urgent=True)

    # -- internal -----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        # Runs on every wakeup, so it reads the slots behind the
        # ``triggered`` and ``processed`` properties directly.
        if self._value is not PENDING:
            # A stale wakeup (e.g. a second interrupt armed in the same
            # instant) arrived after the generator finished — drop it.
            return
        self._waiting_on = None
        self.sim._active_process = self
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            if self.sim.strict:
                raise
            self.fail(exc)
            return
        self.sim._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"{self.name} yielded {target!r}; processes must yield events")
        if target.sim is not self.sim:
            raise SimulationError(
                f"{self.name} yielded an event from another simulation")
        if target.callbacks is None:
            # The event already fired and ran its callbacks; resume this
            # process at the current time with the same outcome, via a
            # pooled wakeup instead of a throwaway Event.
            self.sim._schedule_wakeup(self._resume, target._ok, target._value)
            return
        self._waiting_on = target
        target.callbacks.append(self._resume)
