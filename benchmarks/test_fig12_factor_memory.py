"""Figure 12: memory factor analysis (10 concurrent microVMs).

Paper (§5.5.2): the OS snapshot improves memory utilization up to 73%; Node
post-JIT reduces usage up to a further 74%; Python post-JIT shows no
significant improvement (Numba's MCJIT duplication dirties the JIT pages).
"""

from repro.bench import FACTOR_CONFIGS, fig12_improvements

from conftest import emit, run_experiment


def test_fig12_factor_memory(benchmark):
    fig12 = benchmark.pedantic(lambda: run_experiment("fig12"), rounds=1,
                               iterations=1)
    improvements = fig12_improvements(fig12)

    lines = [f"{'workload':<28} " + " ".join(f"{c:>14}"
                                             for c in FACTOR_CONFIGS)]
    for workload, per_config in sorted(fig12.items()):
        lines.append(f"{workload:<28} " + " ".join(
            f"{per_config[c]:>13.1f}M" for c in FACTOR_CONFIGS))
    lines.append("")
    for workload, values in sorted(improvements.items()):
        lines.append(
            f"{workload:<28} os-snap saves "
            f"{values['os_snapshot_vs_baseline_pct']:5.1f}%  post-jit "
            f"saves {values['post_jit_vs_os_snapshot_pct']:5.1f}% more")
    emit("Figure 12 — memory factor analysis (PSS per microVM, 10 VMs)",
         "\n".join(lines))

    # The OS snapshot always saves memory.
    for workload, per_config in fig12.items():
        assert per_config["+os-snapshot"] < per_config["firecracker"], \
            workload
    # Node.js post-JIT also shares app/heap/JIT pages.
    for workload, values in improvements.items():
        if workload.endswith("nodejs"):
            assert values["post_jit_vs_os_snapshot_pct"] > 20, workload
        else:
            # Python: Numba duplication eats the sharing benefit.
            assert values["post_jit_vs_os_snapshot_pct"] < 15, workload
    # Paper: up to 73% improvement from the OS snapshot.
    best = max(v["os_snapshot_vs_baseline_pct"]
               for v in improvements.values())
    assert 45 <= best <= 80
