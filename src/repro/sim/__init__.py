"""Deterministic discrete-event simulation kernel.

All simulated components in the Fireworks reproduction run on this kernel:
time is a float number of milliseconds, concurrency is generator processes,
and all randomness flows through named seeded streams.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulation, SimulationScope
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Request, Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngStreams",
    "Simulation",
    "SimulationScope",
    "Store",
    "Timeout",
]
