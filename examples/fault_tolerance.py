#!/usr/bin/env python3
"""Fault tolerance: Fireworks recovering from injected failures.

Attaches a chaos plan whose budget events arm a corrupted snapshot image
and two Kafka-broker hiccups, then shows the invocation succeeding
anyway: the corrupted image is regenerated (the §6 ASLR machinery) and
the parameter fetch is retried.

Run:  python examples/fault_tolerance.py
"""

from repro import FireworksPlatform, Simulation, default_parameters
from repro.chaos import (KIND_PARAM_FETCH_TIMEOUT, KIND_RESTORE_CORRUPTION,
                         ChaosEvent, ChaosPlan, HostFailureController)
from repro.workloads import faasdom_spec


def main() -> None:
    sim = Simulation(seed=2022)
    fireworks = FireworksPlatform(sim, default_parameters())
    spec = faasdom_spec("faas-fact", "nodejs")
    sim.run(sim.process(fireworks.install(spec)))

    print("== clean invocation ==")
    clean = sim.run(sim.process(fireworks.invoke(spec.name)))
    print(f"  start-up {clean.startup_ms:6.1f} ms (generation "
          f"{fireworks.image_for(spec.name).generation})")

    print("\n== arming faults: 1 corrupted restore + 2 broker hiccups ==")
    controller = HostFailureController(fireworks, ChaosPlan([
        ChaosEvent(sim.now, KIND_RESTORE_CORRUPTION, key=spec.name),
        ChaosEvent(sim.now, KIND_PARAM_FETCH_TIMEOUT, key=spec.name,
                   count=2)]))
    recovered = sim.run(sim.process(fireworks.invoke(spec.name)))
    sim.run()  # drain the clone's reclamation
    print(f"  invocation still succeeded: mode={recovered.mode}")
    print(f"  start-up {recovered.startup_ms:6.1f} ms — includes one "
          "snapshot regeneration and two fetch retries")
    print(f"  faults fired          : {sum(controller.fired.values())}")
    print(f"  restore failures seen : {fireworks.restore_failures}")
    print(f"  param fetch retries   : {fireworks.param_fetch_retries}")
    print(f"  snapshot generation   : "
          f"{fireworks.image_for(spec.name).generation} (was 1)")
    print(f"  leaked network wiring : {fireworks.bridge.endpoint_count()}")

    print("\n== back to normal ==")
    after = sim.run(sim.process(fireworks.invoke(spec.name)))
    print(f"  start-up {after.startup_ms:6.1f} ms (fresh generation, "
          "budgets spent)")


if __name__ == "__main__":
    main()
