#!/usr/bin/env python3
"""Memory consolidation: how many microVMs fit before swapping (Fig 10).

Launches faas-fact microVMs under sustained load on plain Firecracker and
on Fireworks until the 128 GB host (vm.swappiness=60) starts swapping, and
prints the memory curve plus the max consolidation counts.

Run:  python examples/consolidation.py
"""

from repro.bench import run_experiments


def main() -> None:
    print("consolidating faas-fact microVMs until the host swaps "
          "(128 GB, threshold 60%)...\n")
    results = run_experiments(["fig10"], use_cache=False).results["fig10"]
    for name, series in results.items():
        print(series.as_table())
        print()
    fc = results["firecracker"].max_vms_before_swap
    fw = results["fireworks"].max_vms_before_swap
    print(f"Fireworks consolidates {fw} microVMs vs Firecracker's {fc} "
          f"({fw / fc:.2f}x more; the paper reports 565 vs 337 = 1.68x).")
    print("The difference is the snapshot: clean guest pages — kernel, "
          "runtime, app, and JITted code — are shared copy-on-write "
          "across every clone (Figure 4).")


if __name__ == "__main__":
    main()
