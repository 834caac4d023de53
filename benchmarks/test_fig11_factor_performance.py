"""Figure 11: performance factor analysis.

Baseline Firecracker (no snapshot) -> +VM-level OS snapshot -> +post-JIT
snapshot, per FaaSdom benchmark and language (§5.5.1).
"""

from conftest import emit, run_experiment


def test_fig11_factor_performance(benchmark):
    fig11 = benchmark.pedantic(lambda: run_experiment("fig11"), rounds=1,
                               iterations=1)
    emit("Figure 11 — performance factor analysis",
         "\n".join(row.as_line() for row in fig11.values()))

    # Each factor helps, for every workload.
    for workload, row in fig11.items():
        assert row.os_snapshot_speedup > 1.0, workload
        assert row.post_jit_over_os_speedup > 1.0, workload

    # Paper: +OS snapshot ~2.3x for Node compute workloads.
    assert 1.8 <= fig11["faas-fact-nodejs"].os_snapshot_speedup <= 3.5
    # Paper: up to 6.1x for network-intensive workloads.
    assert 4.5 <= fig11["faas-netlatency-nodejs"].os_snapshot_speedup <= 9.0
    # §5.5.1: start-up dominates I/O-light workloads, so the OS-snapshot
    # factor is largest for netlatency.
    assert fig11["faas-netlatency-nodejs"].os_snapshot_speedup > \
        fig11["faas-fact-nodejs"].os_snapshot_speedup
    # §5.5.1: the Python interpreter never JITs, so post-JIT's increment is
    # much larger for Python than for Node.js.
    assert fig11["faas-fact-python"].post_jit_over_os_speedup > \
        3 * fig11["faas-fact-nodejs"].post_jit_over_os_speedup
    # §5.5.1: JIT triggers near the end of the Node I/O benchmarks, so
    # post-JIT still wins clearly there.
    for workload in ("faas-diskio-nodejs", "faas-netlatency-nodejs"):
        assert fig11[workload].post_jit_over_os_speedup > 1.2
