"""Figure 6: latency comparison of the Node.js FaaSdom benchmarks.

Regenerates all five sub-figures (fact, matrix-mult, diskio, netlatency,
geometric mean) with the start-up / exec / others breakdown, and checks the
paper's headline ratios in band.  (The same claims are asserted one-by-one
in tests/integration/test_paper_claims.py.)
"""

from conftest import emit, run_experiment


def _check_fact(fig6):
    fact = fig6["faas-fact"]
    fw = fact.row("fireworks", "snapshot")
    fc_cold = fact.row("firecracker", "cold")
    # Paper: up to 133x faster cold start-up.
    assert 80 <= fc_cold.startup_ms / fw.startup_ms <= 200
    # Paper: up to 3.8x faster warm start-up.
    worst_warm = max(fact.row(p, "warm").startup_ms
                     for p in ("openwhisk", "gvisor", "firecracker"))
    assert 2.0 <= worst_warm / fw.startup_ms <= 6.0
    # Paper: up to 38% faster execution in cold cases.
    assert 0.25 <= 1 - fw.exec_ms / fc_cold.exec_ms <= 0.50


def _check_cold_ordering(fig6):
    for key in ("faas-fact", "faas-matrix-mult", "faas-diskio",
                "faas-netlatency"):
        result = fig6[key]
        fc = result.row("firecracker", "cold").startup_ms
        assert fc >= result.row("gvisor", "cold").startup_ms
        assert fc >= result.row("openwhisk", "cold").startup_ms


def _check_diskio(fig6):
    # §5.2.1(2): gVisor slowest I/O; container faster than microVM.
    diskio = fig6["faas-diskio"]
    gv = diskio.row("gvisor", "cold").exec_ms
    fw = diskio.row("fireworks", "snapshot").exec_ms
    ow = diskio.row("openwhisk", "cold").exec_ms
    assert gv / fw >= 6
    assert ow < fw


def _check_netlatency(fig6):
    # Paper: up to 25x faster cold start-up, 22x faster end-to-end.
    net = fig6["faas-netlatency"]
    fw = net.row("fireworks", "snapshot")
    worst_cold = max(net.row(p, "cold").total_ms
                     for p in ("openwhisk", "gvisor", "firecracker"))
    assert worst_cold / fw.total_ms >= 20


def _check_geomean(fig6):
    # Paper: up to 8.6x shorter latency overall (geometric mean).
    geomean = fig6["geomean"]
    fw = geomean.row("fireworks", "snapshot").total_ms
    worst = max(row.total_ms for row in geomean.rows)
    assert 5 <= worst / fw <= 60


def test_fig6_nodejs_faasdom(benchmark):
    fig6 = benchmark.pedantic(lambda: run_experiment("fig6"), rounds=1,
                              iterations=1)
    for key in ("faas-fact", "faas-matrix-mult", "faas-diskio",
                "faas-netlatency", "geomean"):
        emit(f"Figure 6 — {key} (Node.js)", fig6[key].as_table())
    _check_fact(fig6)
    _check_cold_ordering(fig6)
    _check_diskio(fig6)
    _check_netlatency(fig6)
    _check_geomean(fig6)
