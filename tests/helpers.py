"""Test helpers shared across the suite."""

from __future__ import annotations

import math

from repro.sim.kernel import Simulation
from repro.workloads.generator import TraceEvent


def run(sim: Simulation, generator, name: str = "test"):
    """Run *generator* as a process to completion; return its value."""
    return sim.run(sim.process(generator, name=name))


def run_all(sim: Simulation, *generators):
    """Start all generators, run to quiescence, return process values."""
    processes = [sim.process(g) for g in generators]
    sim.run()
    return [p.value for p in processes]


def drained_host(platform, host=None):
    """*host* (default host 0) once every pending process has run: its
    namespaces, routes and used memory."""
    platform.sim.run()
    if host is None:
        host = platform.cluster.hosts[0]
    bridge = host.bridge
    return (len(bridge.namespaces), bridge.endpoint_count(),
            host.memory.used_mb)


def sorted_modulated_trace(popularities, duration_ms: float, rng,
                           period_ms: float = 60000.0,
                           depth: float = 0.6):
    """The list that ``modulated_poisson_trace`` streams: every function's
    thinned arrivals from its own ``arrivals:<fn>`` stream, collected in
    one list, then sorted by ``(at_ms, function)``."""
    events = []
    omega = 2.0 * math.pi / period_ms
    for pop in popularities:
        stream = rng.stream(f"arrivals:{pop.function}")
        peak_mean_ms = pop.mean_interarrival_ms / (1.0 + depth)
        t = 0.0
        while True:
            u = stream.random()
            t += -peak_mean_ms * math.log(1.0 - u)
            if t >= duration_ms:
                break
            accept = (1.0 + depth * math.sin(omega * t)) / (1.0 + depth)
            if stream.random() < accept:
                events.append(TraceEvent(at_ms=t, function=pop.function))
    events.sort(key=lambda event: (event.at_ms, event.function))
    return events
