"""Integration tests: the paper's headline claims must hold in shape.

These are the end-to-end guarantees of §5, asserted as bands rather than
exact numbers (the substrate is a simulator, not the authors' testbed).
Every headline claim is declared once, in :data:`repro.bench.paper.CLAIMS`;
``test_claim_in_band`` asserts each band on the catalog shards the
scorecard reads, and ``test_experiments_md_claim_table`` pins the
EXPERIMENTS.md claim table to the declarations.  The classes below check
the figure shapes around the claims: orderings, non-headline bands and
checks that cover every workload.
"""

from pathlib import Path

import pytest

from repro.bench import (cold_and_warm, fig12_improvements,
                         fireworks_invocation)
from repro.bench.engine import experiment_registry
from repro.bench.memory import FIG10_PLATFORMS
from repro.bench.experiment import Cells
from repro.bench.paper import CLAIMS, SCORECARD_SHARDS
from repro.platforms import FirecrackerPlatform, GVisorPlatform, \
    OpenWhiskPlatform
from repro.workloads import BENCHMARK_NAMES, faasdom_spec

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
CLAIM_TABLE_HEADER = "| claim | paper | band | measured |"


@pytest.fixture(scope="module")
def cells():
    """The catalog shards, each run once for the whole module."""
    return Cells()


@pytest.fixture(scope="module")
def scorecard_cells(cells):
    """A strict accessor: the scorecard's ten declared shards only."""
    return Cells(shards={(experiment, key, cells.fingerprint):
                         cells(experiment, key)
                         for experiment, key in SCORECARD_SHARDS})


def _merged(cells, experiment_id):
    """An experiment's merged result, built from the shared shards."""
    experiment = experiment_registry()[experiment_id]
    return experiment.merge({shard.key: cells(experiment_id, shard.key)
                             for shard in experiment.shards})


def test_fifteen_headline_claims():
    assert len(CLAIMS) == 15


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.metric)
def test_claim_in_band(claim, cells):
    assert claim.compare(cells).holds


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.metric)
def test_claim_reads_only_the_declared_shards(claim, cells,
                                              scorecard_cells):
    assert claim.compare(scorecard_cells) == claim.compare(cells)


def _claim_table_rows():
    lines = EXPERIMENTS_MD.read_text().splitlines()
    start = lines.index(CLAIM_TABLE_HEADER) + 2  # skip the |---| rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip()
                          for cell in line.strip("|").split("|")))
    return rows


def test_experiments_md_claim_table(cells):
    """EXPERIMENTS.md's claim table is CLAIMS plus the seed-2022 values."""
    assert _claim_table_rows() == [
        (claim.metric, claim.paper, claim.band,
         claim.compare(cells).measured_value) for claim in CLAIMS]


@pytest.fixture(scope="module")
def fact_node():
    return faasdom_spec("faas-fact", "nodejs")


@pytest.fixture(scope="module")
def fw_fact_node(fact_node):
    return fireworks_invocation(fact_node)


def _fw(figure):
    return figure.row("fireworks", "snapshot")


class TestFig6Claims:
    def test_fireworks_beats_every_warm_start(self, fw_fact_node,
                                              fact_node):
        for platform_cls in (OpenWhiskPlatform, GVisorPlatform,
                             FirecrackerPlatform):
            _cold, warm = cold_and_warm(platform_cls, fact_node)
            assert fw_fact_node.startup_ms <= warm.startup_ms * 1.2

    def test_worst_warm_startup_speedup_band(self, cells):
        """Paper: up to 3.8x faster warm start-up, against the slowest
        warm platform."""
        fact = cells("fig6", "faas-fact")
        worst_warm = max(fact.row(p, "warm").startup_ms
                         for p in ("openwhisk", "gvisor", "firecracker"))
        assert 2.0 <= worst_warm / _fw(fact).startup_ms <= 6.0

    def test_firecracker_cold_start_slowest(self, cells):
        for benchmark in BENCHMARK_NAMES:
            result = cells("fig6", benchmark)
            fc = result.row("firecracker", "cold").startup_ms
            assert fc >= result.row("gvisor", "cold").startup_ms
            assert fc >= result.row("openwhisk", "cold").startup_ms

    def test_geomean_band(self, cells):
        """Paper: up to 8.6x shorter latency overall (geometric mean)."""
        geomean = _merged(cells, "fig6")["geomean"]
        worst = max(row.total_ms for row in geomean.rows)
        assert 5 <= worst / _fw(geomean).total_ms <= 60


class TestFig7Claims:
    def test_io_similar_across_languages(self):
        """§5.2.2(3): I/O performance mostly depends on the sandbox, not
        the language."""
        node = fireworks_invocation(faasdom_spec("faas-diskio", "nodejs"))
        python = fireworks_invocation(faasdom_spec("faas-diskio", "python"))
        assert node.guest.disk_ms == pytest.approx(python.guest.disk_ms)

    def test_warm_exec_speedup_band(self, cells):
        """Paper: 14.6x faster execution than a warm Python start."""
        fact = cells("fig7", "faas-fact")
        warm = fact.row("firecracker", "warm")
        assert 12 <= warm.exec_ms / _fw(fact).exec_ms <= 25

    def test_matmul_cold_startup_speedup(self, cells):
        """Paper: up to 74.2x faster cold start-up (matmul)."""
        matmul = cells("fig7", "faas-matrix-mult")
        assert matmul.row("firecracker", "cold").startup_ms / \
            _fw(matmul).startup_ms >= 40

    def test_python_compute_slower_than_node(self, cells):
        """§5.2.2: Python is in general slower than Node.js (compute)."""
        assert cells("fig7", "faas-fact").row("firecracker", "cold").exec_ms \
            > cells("fig6", "faas-fact").row("firecracker", "cold").exec_ms

    def test_diskio_exec_similar_across_languages(self, cells):
        assert _fw(cells("fig7", "faas-diskio")).exec_ms == pytest.approx(
            _fw(cells("fig6", "faas-diskio")).exec_ms, rel=0.35)

    def test_geomean_speedup(self, cells):
        """Paper: overall up to 19x (2.2x larger than Node's 8.6x)."""
        geomean = _merged(cells, "fig7")["geomean"]
        worst = max(row.total_ms for row in geomean.rows)
        assert worst / _fw(geomean).total_ms >= 10


class TestDiskIoClaims:
    def test_container_io_beats_microvm(self):
        """§5.2.1(2): OverlayFS containers do I/O faster than microVMs."""
        spec = faasdom_spec("faas-diskio", "nodejs")
        ow_cold, _ = cold_and_warm(OpenWhiskPlatform, spec)
        fw = fireworks_invocation(spec)
        assert ow_cold.guest.disk_ms < fw.guest.disk_ms

    def test_container_exec_beats_microvm(self, cells):
        diskio = cells("fig6", "faas-diskio")
        assert diskio.row("openwhisk", "cold").exec_ms < _fw(diskio).exec_ms


class TestFig9Claims:
    """The real-world chains against OpenWhisk.  Our OpenWhisk pays a cold
    start per chain function on first use, so the start-up ratios land
    higher than the paper's mixed-warmth measurement."""

    def test_alexa_ratios(self, cells):
        """Paper: 12.5x faster start-up, 2.4x faster execution."""
        alexa = cells("fig9")["alexa"]
        ow = alexa.row("openwhisk", "chain")
        fw = alexa.row("fireworks", "chain")
        assert ow.startup_ms / fw.startup_ms >= 12
        assert 1.5 <= ow.exec_ms / fw.exec_ms <= 4.0

    @pytest.mark.parametrize("stage", ["insert", "analysis"])
    def test_data_analysis_ratios(self, cells, stage):
        """Paper: insertion 25.6x / 11.8x and analysis 27x / 4.9x faster
        start-up / execution."""
        analysis = cells("fig9")["data-analysis"]
        ow = analysis.row("openwhisk", stage)
        fw = analysis.row("fireworks", stage)
        assert ow.startup_ms / fw.startup_ms >= 25
        assert ow.exec_ms / fw.exec_ms >= 2

    def test_fireworks_always_wins(self, cells):
        for figure in cells("fig9").values():
            fw_rows = [r for r in figure.rows if r.platform == "fireworks"]
            ow_rows = [r for r in figure.rows if r.platform == "openwhisk"]
            for fw_row, ow_row in zip(fw_rows, ow_rows):
                assert fw_row.total_ms < ow_row.total_ms


class TestFig10Claims:
    def test_per_vm_memory_lower_with_sharing(self, cells):
        fw_pss = cells("fig10", "fireworks").points[-1].mean_pss_mb
        fc_pss = cells("fig10", "firecracker").points[-1].mean_pss_mb
        assert fw_pss < fc_pss * 0.75

    def test_host_memory_grows_with_every_sample(self, cells):
        for platform in FIG10_PLATFORMS:
            used = [point.host_used_mb
                    for point in cells("fig10", platform).points]
            assert used == sorted(used), platform


class TestFig11Claims:
    """Performance factor analysis (§5.5.1)."""

    @pytest.fixture(scope="class")
    def fig11(self, cells):
        return _merged(cells, "fig11")

    def test_each_factor_helps_every_workload(self, fig11):
        for workload, row in fig11.items():
            assert row.os_snapshot_speedup > 1.0, workload
            assert row.post_jit_over_os_speedup > 1.0, workload

    def test_os_snapshot_bands(self, fig11):
        """Paper: +OS snapshot ~2.3x for Node compute workloads, up to
        6.1x for network-intensive ones, where start-up dominates."""
        fact = fig11["faas-fact-nodejs"].os_snapshot_speedup
        netlatency = fig11["faas-netlatency-nodejs"].os_snapshot_speedup
        assert 1.8 <= fact <= 3.5
        assert 4.5 <= netlatency <= 9.0
        assert netlatency > fact

    def test_post_jit_increment_larger_for_python(self, fig11):
        """The Python interpreter never JITs."""
        assert fig11["faas-fact-python"].post_jit_over_os_speedup > \
            3 * fig11["faas-fact-nodejs"].post_jit_over_os_speedup

    def test_post_jit_wins_on_node_io(self, fig11):
        """JIT triggers near the end of the Node I/O benchmarks."""
        for workload in ("faas-diskio-nodejs", "faas-netlatency-nodejs"):
            assert fig11[workload].post_jit_over_os_speedup > 1.2


class TestFig12Claims:
    @pytest.fixture(scope="class")
    def improvements(self, cells):
        return fig12_improvements(_merged(cells, "fig12"))

    def test_os_snapshot_saves_memory_both_languages(self, improvements):
        for workload, values in improvements.items():
            assert values["os_snapshot_vs_baseline_pct"] > 30, workload

    def test_post_jit_language_asymmetry_every_workload(self, improvements):
        """Node.js post-JIT also shares app/heap/JIT pages; in Python,
        Numba duplication eats the sharing benefit."""
        for workload, values in improvements.items():
            if workload.endswith("nodejs"):
                assert values["post_jit_vs_os_snapshot_pct"] > 20, workload
            else:
                assert values["post_jit_vs_os_snapshot_pct"] < 15, workload

    def test_best_os_snapshot_saving_band(self, improvements):
        """Paper: up to 73% improvement from the OS snapshot."""
        best = max(values["os_snapshot_vs_baseline_pct"]
                   for values in improvements.values())
        assert 45 <= best <= 80


class TestSnapshotCreation:
    """§5.1: post-JIT snapshot creation during the installation phase."""

    def test_every_snapshot_write_in_band(self, cells):
        for name, parts in cells("snapshot-creation").items():
            assert 360 <= parts["snapshot_ms"] <= 470, name

    def test_npm_loading_dominates_node_install(self, cells):
        for name, parts in cells("snapshot-creation").items():
            if name.endswith("nodejs"):
                assert parts["jit_ms"] < 10, name

    def test_numba_costs_more_than_turbofan_hooks(self, cells):
        creation = cells("snapshot-creation")
        assert creation["faas-fact-python"]["jit_ms"] > \
            creation["faas-fact-nodejs"]["jit_ms"]
