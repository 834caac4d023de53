"""Golden numbers: the exact values the calibrated model produces.

The claim ledger (repro.bench.paper.CLAIMS) asserts *bands*; this module
pins *exact* values so an accidental model change — a reordered timeout, a
changed constant, a different RNG draw — is caught even when it stays
inside a band.  If you change the model deliberately, update these numbers
and EXPERIMENTS.md together.
"""

import pytest

from repro.bench import (cold_and_warm, fireworks_invocation)
from repro.platforms import FirecrackerPlatform, OpenWhiskPlatform
from repro.workloads import faasdom_spec

ABS = 1e-6


class TestGoldenFireworks:
    def test_node_fact(self):
        record = fireworks_invocation(faasdom_spec("faas-fact", "nodejs"))
        assert record.startup_ms == pytest.approx(18.35, abs=0.01)
        assert record.exec_ms == pytest.approx(500.60, abs=0.01)
        assert record.other_ms == pytest.approx(3.3, abs=0.01)

    def test_python_fact(self):
        record = fireworks_invocation(faasdom_spec("faas-fact", "python"))
        assert record.startup_ms == pytest.approx(33.93, abs=0.01)
        assert record.exec_ms == pytest.approx(125.60, abs=0.01)

    def test_python_matmul(self):
        record = fireworks_invocation(
            faasdom_spec("faas-matrix-mult", "python"))
        assert record.exec_ms == pytest.approx(40.60, abs=0.01)


class TestGoldenBaselines:
    def test_firecracker_node_fact(self):
        cold, warm = cold_and_warm(FirecrackerPlatform,
                                   faasdom_spec("faas-fact", "nodejs"))
        assert cold.startup_ms == pytest.approx(2320.0, abs=ABS)
        assert cold.exec_ms == pytest.approx(801.39, abs=0.01)
        assert warm.startup_ms == pytest.approx(68.0, abs=ABS)

    def test_firecracker_python_fact(self):
        cold, _warm = cold_and_warm(FirecrackerPlatform,
                                    faasdom_spec("faas-fact", "python"))
        assert cold.startup_ms == pytest.approx(1920.0, abs=ABS)
        assert cold.exec_ms == pytest.approx(2500.60, abs=0.01)

    def test_openwhisk_node_fact(self):
        cold, warm = cold_and_warm(OpenWhiskPlatform,
                                   faasdom_spec("faas-fact", "nodejs"))
        assert cold.startup_ms == pytest.approx(1520.0, abs=ABS)
        assert warm.startup_ms == pytest.approx(55.0, abs=ABS)
        # Warm OpenWhisk reuses the JITted process.
        assert warm.exec_ms == pytest.approx(500.40, abs=0.01)


class TestGoldenInstall:
    def test_install_decomposition_node(self):
        from repro.bench import fresh_platform, install_all
        from repro.core import FireworksPlatform
        platform = fresh_platform(FireworksPlatform)
        install_all(platform, [faasdom_spec("faas-fact", "nodejs")])
        report = platform.install_reports["faas-fact-nodejs"]
        assert report.annotate_ms == pytest.approx(35.0, abs=ABS)
        assert report.boot_ms == pytest.approx(2320.0, abs=ABS)
        assert report.jit_ms == pytest.approx(4.5, abs=ABS)
        assert report.snapshot_ms == pytest.approx(392.0, abs=ABS)


class TestGoldenDeterminism:
    def test_bitwise_repeatability(self):
        """Two identical runs produce identical floats, not just close."""
        spec = faasdom_spec("faas-diskio", "python")
        first = fireworks_invocation(spec)
        second = fireworks_invocation(spec)
        assert first.startup_ms == second.startup_ms
        assert first.exec_ms == second.exec_ms
        assert first.other_ms == second.other_ms


def _canonical_hash(result) -> str:
    """SHA-256 of the loss-free canonical JSON encoding of *result* —
    the same bytes the engine's result cache stores."""
    import hashlib
    import json

    from repro.bench.serialization import encode_result
    blob = json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Pristine (pre-serving-layer) figure hashes; the disabled autoscale
#: defaults must reproduce them bit-for-bit.
GOLDEN_FIGURE_HASHES = {
    "fig6:faas-fact":
        "4b214b3ad461b9b9d3e81751f52b4289b8bc025eb26c0c51313cbf5de2c42cee",
    "fig7:faas-fact":
        "d0a486034e58b8f7635fb1d6759195883c0070cdcfd4d6af2235685db8033449",
    "fig9:all":
        "1f21f019ac6571b22fba816f6bf29bc48fe960b6f527db3dfe063bd5fe16ec15",
    "fig10:firecracker":
        "3fbc9636a87f7bb336be487c84fe51c5ee22b76f74c48497f5dbae63485a2d8c",
    "fig10:fireworks":
        "7d3ed7a73aea311202e07584654bcf52bfbcf1cc819716c1b5403d9f4619f97b",
    # The lazy-restore / streaming-transfer figure (PR 7) — pinned the
    # same way so later PRs cannot silently move it.
    "restore:all":
        "88442eade79b97841ff49d6970c53b539fc31ed41d04b27f1ef525c42acb762a",
    # The multi-tenant chains figure (PR 10): all ten
    # (backend, placement policy) rows through the DAG executor.
    "chains:all":
        "eef16148bf2177ab487427aad74cc6ba8b269a092ac46e912d4bf36447d65f31",
}


class TestGoldenFigureHashes:
    """Whole-figure outputs, pinned bit-for-bit.

    The serving layer (repro.autoscale) threads through the shared invoke
    path; these hashes prove its disabled defaults leave every existing
    figure *byte*-identical, not merely within tolerance.  If you change
    the model deliberately, re-capture with ``_canonical_hash`` and
    update EXPERIMENTS.md alongside.
    """

    def test_autoscale_is_disabled_by_default(self):
        from repro.config import default_parameters
        params = default_parameters()
        assert params.autoscale.enabled is False

    def test_default_decision_path_stays_builtin(self):
        # The policy-engine refactor must be invisible by default: a
        # platform built with no DSL documents routes every decision
        # layer through the built-in classes (source "builtin"), which
        # is what makes the byte-identical hashes below meaningful.
        from repro.autoscale.scaler import WarmPoolAutoscaler
        from repro.bench.harness import fresh_cluster_platform
        from repro.core.fireworks import FireworksPlatform
        platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2)
        assert platform.cluster.policy_source == "builtin"
        scaler = WarmPoolAutoscaler(platform, mode="none")
        assert scaler.policy_source == "builtin"

    def test_fig6_fact_nodejs(self):
        from repro.bench.faasdom_experiments import run_faasdom_benchmark
        from repro.config import default_parameters
        result = run_faasdom_benchmark("faas-fact", "nodejs",
                                       default_parameters())
        assert _canonical_hash(result) == \
            GOLDEN_FIGURE_HASHES["fig6:faas-fact"]

    def test_fig7_fact_python(self):
        from repro.bench.faasdom_experiments import run_faasdom_benchmark
        from repro.config import default_parameters
        result = run_faasdom_benchmark("faas-fact", "python",
                                       default_parameters())
        assert _canonical_hash(result) == \
            GOLDEN_FIGURE_HASHES["fig7:faas-fact"]

    def test_fig9_applications(self):
        from repro.bench.realworld import run_fig9
        from repro.config import default_parameters
        result = run_fig9(default_parameters())
        assert _canonical_hash(result) == GOLDEN_FIGURE_HASHES["fig9:all"]

    def test_fig10_firecracker(self):
        from repro.bench.memory import run_fig10_platform
        from repro.config import default_parameters
        result = run_fig10_platform("firecracker", default_parameters())
        assert _canonical_hash(result) == \
            GOLDEN_FIGURE_HASHES["fig10:firecracker"]

    def test_fig10_fireworks(self):
        from repro.bench.memory import run_fig10_platform
        from repro.config import default_parameters
        result = run_fig10_platform("fireworks", default_parameters())
        assert _canonical_hash(result) == \
            GOLDEN_FIGURE_HASHES["fig10:fireworks"]

    def test_stream_transfers_disabled_by_default(self):
        from repro.config import default_parameters
        params = default_parameters()
        assert params.cluster.stream_transfers is False

    def test_restore_figure(self):
        from repro.bench.engine import run_experiments
        result = run_experiments(["restore"],
                                 use_cache=False).results["restore"]
        assert _canonical_hash(result) == \
            GOLDEN_FIGURE_HASHES["restore:all"]

    def test_chains_figure(self):
        from repro.bench.engine import run_experiments
        result = run_experiments(["chains"],
                                 use_cache=False).results["chains"]
        # The engine keys rows "platform@policy"; the pinned hash covers
        # them keyed by (platform, policy) tuples.
        rows = {(row.platform, row.policy): row for row in result.values()}
        assert _canonical_hash(rows) == GOLDEN_FIGURE_HASHES["chains:all"]
