"""Figure 10: memory usage / consolidation, Firecracker vs Fireworks.

Paper (§5.4): on a 128 GB host with vm.swappiness=60, Fireworks launches
565 microVMs before swapping vs Firecracker's 337 — about 1.68x more.
"""

import pytest

from conftest import emit, run_experiment


def test_fig10_memory_usage(benchmark):
    fig10 = benchmark.pedantic(lambda: run_experiment("fig10"), rounds=1,
                               iterations=1)
    emit("Figure 10 — memory usage vs number of microVMs",
         "\n".join(series.as_table() for series in fig10.values()))

    fw = fig10["fireworks"].max_vms_before_swap
    fc = fig10["firecracker"].max_vms_before_swap
    # Paper: 565 vs 337 — about 1.68x more sandboxes.
    assert fw / fc == pytest.approx(1.68, rel=0.15)
    assert 280 <= fc <= 400
    assert 480 <= fw <= 650

    for series in fig10.values():
        used = [point.host_used_mb for point in series.points]
        assert used == sorted(used)
    fw_last = fig10["fireworks"].points[-1]
    fc_last = fig10["firecracker"].points[-1]
    assert fw_last.mean_pss_mb < fc_last.mean_pss_mb
