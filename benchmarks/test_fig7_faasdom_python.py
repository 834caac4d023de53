"""Figure 7: latency comparison of the Python FaaSdom benchmarks."""

import pytest

from repro.bench import run_faasdom_benchmark

from conftest import emit, run_experiment


def _check_fact(fig7):
    fact = fig7["faas-fact"]
    fw = fact.row("fireworks", "snapshot")
    fc_cold = fact.row("firecracker", "cold")
    # Paper: 59.8x faster cold start-up.
    assert 40 <= fc_cold.startup_ms / fw.startup_ms <= 90
    # Paper: 20x faster execution cold, 14.6x warm.
    assert 15 <= fc_cold.exec_ms / fw.exec_ms <= 25
    warm = fact.row("firecracker", "warm")
    assert 12 <= warm.exec_ms / fw.exec_ms <= 25


def _check_matmul(fig7):
    # Paper: up to 74.2x faster cold start-up, 80x faster execution.
    matmul = fig7["faas-matrix-mult"]
    fw = matmul.row("fireworks", "snapshot")
    assert matmul.row("firecracker", "cold").exec_ms / fw.exec_ms >= 55
    assert matmul.row("firecracker", "cold").startup_ms / \
        fw.startup_ms >= 40


def _check_cross_language(fig7):
    # §5.2.2: Python is in general slower than Node.js (compute)...
    node_fact = run_faasdom_benchmark("faas-fact", "nodejs")
    py_cold = fig7["faas-fact"].row("firecracker", "cold").exec_ms
    assert py_cold > node_fact.row("firecracker", "cold").exec_ms
    # ...but I/O performance is similar (§5.2.2(3)).
    node_diskio = run_faasdom_benchmark("faas-diskio", "nodejs")
    py_fw = fig7["faas-diskio"].row("fireworks", "snapshot").exec_ms
    node_fw = node_diskio.row("fireworks", "snapshot").exec_ms
    assert py_fw == pytest.approx(node_fw, rel=0.35)


def _check_geomean(fig7):
    # Paper: overall up to 19x (2.2x larger than Node's 8.6x).
    geomean = fig7["geomean"]
    fw = geomean.row("fireworks", "snapshot").total_ms
    worst = max(row.total_ms for row in geomean.rows)
    assert worst / fw >= 10


def test_fig7_python_faasdom(benchmark):
    fig7 = benchmark.pedantic(lambda: run_experiment("fig7"), rounds=1,
                              iterations=1)
    for key in ("faas-fact", "faas-matrix-mult", "faas-diskio",
                "faas-netlatency", "geomean"):
        emit(f"Figure 7 — {key} (Python)", fig7[key].as_table())
    _check_fact(fig7)
    _check_matmul(fig7)
    _check_cross_language(fig7)
    _check_geomean(fig7)
