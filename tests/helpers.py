"""Test helpers shared across the suite."""

from __future__ import annotations

from repro.sim.kernel import Simulation


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
